//! The Kairos binary application format.
//!
//! The paper's prototype "specified a binary format for applications, that
//! allows integration of the task graph, specification, and task
//! implementations", registered as a Linux binary handler so the kernel can
//! distinguish MPSoC applications from host executables. This module is that
//! container format: a compact, versioned, length-checked encoding of an
//! [`Application`].
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic       4 bytes  "KAIR"
//! version     u16      currently 1
//! name        u16 len + UTF-8 bytes
//! task count  u32
//!   per task: name (u16 len + bytes), role u8, impl count u16,
//!     per impl: target u8, requires 4 x u64, exec_cycles u64, energy u64
//! chan count  u32
//!   per chan: src u32, dst u32, bandwidth u64, tokens u32
//! constraint count u32
//!   per constraint: tag u8 (0 = throughput, 1 = latency) + payload
//! ```

use std::fmt;

use kairos_platform::{ElementKind, ResourceVector};

use crate::application::{Application, ApplicationBuilder};
use crate::constraints::Constraint;
use crate::implementation::Implementation;
use crate::task::{TaskId, TaskRole};

/// Magic bytes identifying a Kairos application image.
pub const MAGIC: [u8; 4] = *b"KAIR";
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors raised while encoding or decoding a Kairos application image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinfmtError {
    /// A length or count is too large for the integer field that records
    /// it (a `u16` string length or implementation count, a `u32` task,
    /// channel or constraint count); nothing is encoded.
    FieldTooWide {
        /// What the field counts.
        field: &'static str,
        /// The value that does not fit.
        len: usize,
    },
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// The image version is not supported.
    UnsupportedVersion(u16),
    /// The image ended prematurely.
    Truncated,
    /// A string field is not valid UTF-8.
    InvalidString,
    /// An enum discriminant is out of range.
    InvalidTag(u8),
    /// The decoded graph failed application validation.
    InvalidApplication(String),
}

impl fmt::Display for BinfmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinfmtError::FieldTooWide { field, len } => {
                write!(f, "{field} {len} does not fit its field in the image")
            }
            BinfmtError::BadMagic => f.write_str("not a Kairos application image (bad magic)"),
            BinfmtError::UnsupportedVersion(v) => write!(f, "unsupported image version {v}"),
            BinfmtError::Truncated => f.write_str("image is truncated"),
            BinfmtError::InvalidString => f.write_str("image contains invalid UTF-8"),
            BinfmtError::InvalidTag(t) => write!(f, "invalid enum tag {t}"),
            BinfmtError::InvalidApplication(e) => write!(f, "decoded graph is invalid: {e}"),
        }
    }
}

impl std::error::Error for BinfmtError {}

fn role_tag(role: TaskRole) -> u8 {
    match role {
        TaskRole::Input => 0,
        TaskRole::Internal => 1,
        TaskRole::Output => 2,
    }
}

fn role_from_tag(tag: u8) -> Result<TaskRole, BinfmtError> {
    match tag {
        0 => Ok(TaskRole::Input),
        1 => Ok(TaskRole::Internal),
        2 => Ok(TaskRole::Output),
        t => Err(BinfmtError::InvalidTag(t)),
    }
}

fn kind_tag(kind: ElementKind) -> u8 {
    match kind {
        ElementKind::Arm => 0,
        ElementKind::Dsp => 1,
        ElementKind::Fpga => 2,
        ElementKind::Memory => 3,
        ElementKind::TestUnit => 4,
        ElementKind::Io => 5,
    }
}

fn kind_from_tag(tag: u8) -> Result<ElementKind, BinfmtError> {
    match tag {
        0 => Ok(ElementKind::Arm),
        1 => Ok(ElementKind::Dsp),
        2 => Ok(ElementKind::Fpga),
        3 => Ok(ElementKind::Memory),
        4 => Ok(ElementKind::TestUnit),
        5 => Ok(ElementKind::Io),
        t => Err(BinfmtError::InvalidTag(t)),
    }
}

/// `len` as the integer type `T` of the field that records it, or
/// [`BinfmtError::FieldTooWide`] when it does not fit.
fn width<T: TryFrom<usize>>(field: &'static str, len: usize) -> Result<T, BinfmtError> {
    T::try_from(len).map_err(|_| BinfmtError::FieldTooWide { field, len })
}

fn put_string(buf: &mut Vec<u8>, field: &'static str, s: &str) -> Result<(), BinfmtError> {
    buf.extend(width::<u16>(field, s.len())?.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Encodes an application into a Kairos binary image.
///
/// # Errors
///
/// Returns [`BinfmtError::FieldTooWide`] when a name is longer than
/// `u16::MAX` bytes, a task has more than `u16::MAX` implementations, or
/// a task, channel or constraint count exceeds `u32::MAX`.
///
/// # Examples
///
/// ```
/// use kairos_app::{binfmt, ApplicationBuilder, TaskRole, Implementation};
/// use kairos_platform::{ElementKind, ResourceVector};
///
/// let mut b = ApplicationBuilder::new("demo");
/// let imp = Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), 10, 1);
/// b.add_task("only", TaskRole::Internal, vec![imp]);
/// let app = b.build()?;
/// let image = binfmt::encode(&app)?;
/// let back = binfmt::decode(&image)?;
/// assert_eq!(app, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn encode(app: &Application) -> Result<Vec<u8>, BinfmtError> {
    let mut buf = Vec::with_capacity(256);
    buf.extend(MAGIC);
    buf.extend(VERSION.to_le_bytes());
    put_string(&mut buf, "application name length", app.name())?;

    buf.extend(width::<u32>("task count", app.task_count())?.to_le_bytes());
    for task in app.tasks() {
        put_string(&mut buf, "task name length", task.name())?;
        buf.push(role_tag(task.role()));
        let impls = task.implementations();
        buf.extend(width::<u16>("implementation count", impls.len())?.to_le_bytes());
        for imp in impls {
            buf.push(kind_tag(imp.target()));
            for &component in imp.requires().as_array() {
                buf.extend(component.to_le_bytes());
            }
            buf.extend(imp.exec_cycles().to_le_bytes());
            buf.extend(imp.energy().to_le_bytes());
        }
    }

    buf.extend(width::<u32>("channel count", app.channel_count())?.to_le_bytes());
    for c in app.channels() {
        buf.extend(c.src().0.to_le_bytes());
        buf.extend(c.dst().0.to_le_bytes());
        buf.extend(c.bandwidth().to_le_bytes());
        buf.extend(c.tokens_per_firing().to_le_bytes());
    }

    buf.extend(width::<u32>("constraint count", app.constraints().len())?.to_le_bytes());
    for constraint in app.constraints() {
        match *constraint {
            Constraint::Throughput { max_period_cycles } => {
                buf.push(0);
                buf.extend(max_period_cycles.to_le_bytes());
            }
            Constraint::Latency { max_latency_cycles, pipeline_depth } => {
                buf.push(1);
                buf.extend(max_latency_cycles.to_le_bytes());
                buf.extend(pipeline_depth.to_le_bytes());
            }
        }
    }

    Ok(buf)
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, or [`BinfmtError::Truncated`] when fewer remain.
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinfmtError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(BinfmtError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], BinfmtError> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(BinfmtError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, BinfmtError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, BinfmtError> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, BinfmtError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, BinfmtError> {
        self.array().map(u64::from_le_bytes)
    }

    fn string(&mut self) -> Result<String, BinfmtError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        Ok(std::str::from_utf8(bytes).map_err(|_| BinfmtError::InvalidString)?.to_owned())
    }

    fn vector(&mut self) -> Result<ResourceVector, BinfmtError> {
        let mut raw = [0u64; kairos_platform::RESOURCE_KIND_COUNT];
        for slot in &mut raw {
            *slot = self.u64()?;
        }
        Ok(ResourceVector::from(raw))
    }
}

/// Decodes a Kairos binary image back into an [`Application`].
///
/// # Errors
///
/// Returns a [`BinfmtError`] for wrong magic, unsupported versions,
/// truncation, invalid UTF-8, out-of-range tags, or when the decoded graph
/// fails [`Application`] validation.
pub fn decode(image: &[u8]) -> Result<Application, BinfmtError> {
    let mut r = Reader { buf: image };
    if r.array()? != MAGIC {
        return Err(BinfmtError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(BinfmtError::UnsupportedVersion(version));
    }
    let name = r.string()?;
    let mut builder = ApplicationBuilder::new(name);

    let task_count = r.u32()?;
    for _ in 0..task_count {
        let name = r.string()?;
        let role = role_from_tag(r.u8()?)?;
        let impl_count = r.u16()?;
        let mut impls = Vec::with_capacity(impl_count as usize);
        for _ in 0..impl_count {
            let target = kind_from_tag(r.u8()?)?;
            let requires = r.vector()?;
            let exec_cycles = r.u64()?;
            let energy = r.u64()?;
            impls.push(Implementation::new(target, requires, exec_cycles, energy));
        }
        builder.add_task(name, role, impls);
    }

    let chan_count = r.u32()?;
    for _ in 0..chan_count {
        let src = TaskId(r.u32()?);
        let dst = TaskId(r.u32()?);
        let bandwidth = r.u64()?;
        let tokens = r.u32()?;
        builder.add_channel(src, dst, bandwidth, tokens);
    }

    let constraint_count = r.u32()?;
    for _ in 0..constraint_count {
        match r.u8()? {
            0 => {
                let max_period_cycles = r.u64()?;
                builder.add_constraint(Constraint::Throughput { max_period_cycles });
            }
            1 => {
                let max_latency_cycles = r.u64()?;
                let pipeline_depth = r.u32()?;
                builder.add_constraint(Constraint::Latency { max_latency_cycles, pipeline_depth });
            }
            t => return Err(BinfmtError::InvalidTag(t)),
        }
    }

    builder.build().map_err(|e| BinfmtError::InvalidApplication(e.to_string()))
}

/// `true` when `image` starts with the Kairos magic — the test the paper's
/// kernel binary handler uses to claim an executable.
pub fn is_kairos_image(image: &[u8]) -> bool {
    image.len() >= 4 && image[..4] == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::ApplicationBuilder;

    fn sample() -> Application {
        let mut b = ApplicationBuilder::new("sample");
        let i1 = Implementation::new(ElementKind::Dsp, ResourceVector::new(700, 32, 0, 0), 500, 9);
        let i2 = Implementation::new(ElementKind::Arm, ResourceVector::new(300, 128, 0, 1), 900, 4);
        let t0 = b.add_task("src", TaskRole::Input, vec![i1, i2]);
        let t1 = b.add_task("dst", TaskRole::Output, vec![i1]);
        b.add_channel(t0, t1, 150, 2);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 1000 });
        b.add_constraint(Constraint::Latency { max_latency_cycles: 5000, pipeline_depth: 3 });
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let app = sample();
        let image = encode(&app).unwrap();
        assert!(is_kairos_image(&image));
        let back = decode(&image).unwrap();
        assert_eq!(app, back);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut image = encode(&sample()).unwrap();
        image[0] = b'X';
        assert_eq!(decode(&image), Err(BinfmtError::BadMagic));
        assert!(!is_kairos_image(&image));
        assert!(!is_kairos_image(b"KA"));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut image = encode(&sample()).unwrap();
        image[4] = 99;
        assert_eq!(decode(&image), Err(BinfmtError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let image = encode(&sample()).unwrap();
        for len in 0..image.len() {
            let err = decode(&image[..len]).unwrap_err();
            assert!(
                matches!(err, BinfmtError::Truncated | BinfmtError::BadMagic),
                "unexpected error at prefix {len}: {err}"
            );
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut image = encode(&sample()).unwrap();
        // name starts after magic(4) + version(2) + len(2)
        image[8] = 0xFF;
        image[9] = 0xFE;
        assert_eq!(decode(&image), Err(BinfmtError::InvalidString));
    }

    #[test]
    fn dangling_channel_fails_validation() {
        // Hand-craft an image whose single channel references task 7.
        let mut buf = MAGIC.to_vec();
        buf.extend(VERSION.to_le_bytes());
        buf.extend(3u16.to_le_bytes());
        buf.extend(b"bad");
        buf.extend(1u32.to_le_bytes()); // one task
        buf.extend(1u16.to_le_bytes());
        buf.extend(b"a");
        buf.push(1); // internal
        buf.extend(1u16.to_le_bytes()); // one impl
        buf.push(1); // dsp
        for _ in 0..kairos_platform::RESOURCE_KIND_COUNT {
            buf.extend(1u64.to_le_bytes());
        }
        buf.extend(1u64.to_le_bytes()); // exec
        buf.extend(1u64.to_le_bytes()); // energy
        buf.extend(1u32.to_le_bytes()); // one channel
        buf.extend(0u32.to_le_bytes()); // src t0
        buf.extend(7u32.to_le_bytes()); // dst t7 (dangling)
        buf.extend(5u64.to_le_bytes());
        buf.extend(1u32.to_le_bytes());
        buf.extend(0u32.to_le_bytes()); // no constraints
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, BinfmtError::InvalidApplication(_)));
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut image = encode(&sample()).unwrap();
        // task role byte: magic(4) version(2) name(2+6) count(4) tname(2+3) -> role at 23
        let name_len = "sample".len();
        let role_pos = 4 + 2 + 2 + name_len + 4 + 2 + "src".len();
        image[role_pos] = 9;
        assert_eq!(decode(&image), Err(BinfmtError::InvalidTag(9)));
    }
}
