//! The severity of a recorded event.

use std::fmt;

/// Describes the verbosity of a span or event.
///
/// `Level` implements `Ord` so that `Level::ERROR` is the *minimum* and
/// `Level::TRACE` the maximum — filters read naturally as
/// `level <= max_level`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Level(u8);

impl Level {
    /// The "error" level: very serious errors.
    pub const ERROR: Level = Level(0);
    /// The "warn" level: hazardous situations.
    pub const WARN: Level = Level(1);
    /// The "info" level: useful information.
    pub const INFO: Level = Level(2);
    /// The "debug" level: lower-priority information.
    pub const DEBUG: Level = Level(3);
    /// The "trace" level: very low-priority, verbose information.
    pub const TRACE: Level = Level(4);

    /// The level's canonical upper-case name.
    pub fn as_str(&self) -> &'static str {
        match self.0 {
            0 => "ERROR",
            1 => "WARN",
            2 => "INFO",
            3 => "DEBUG",
            _ => "TRACE",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_error_lowest() {
        assert!(Level::ERROR < Level::WARN);
        assert!(Level::WARN < Level::INFO);
        assert!(Level::INFO < Level::DEBUG);
        assert!(Level::DEBUG < Level::TRACE);
        assert_eq!(Level::INFO.to_string(), "INFO");
        assert_eq!(format!("{:?}", Level::WARN), "WARN");
    }
}
