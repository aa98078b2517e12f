//! ASCII rendering of platform occupancy — the operator's view of the
//! resource manager's state, printed by the `multi_app` example and handy
//! when debugging mapping decisions.

use crate::platform::Platform;

/// One-character occupancy class of an element.
fn glyph(platform: &Platform, e: crate::ElementId) -> char {
    if platform.is_failed(e) {
        return 'X';
    }
    match platform.residents(e).len() {
        0 => '.',
        1 => 'o',
        2..=3 => '8',
        _ => '#',
    }
}

/// Renders the occupancy glyphs as a single dense strip in element-id
/// order — useful for eyeballing fragmentation at a glance.
///
/// # Examples
///
/// ```
/// use kairos_platform::{topology, render_strip};
///
/// let platform = topology::dsp_line(5);
/// assert_eq!(render_strip(&platform), ".....");
/// ```
pub fn render_strip(platform: &Platform) -> String {
    platform.element_ids().map(|e| glyph(platform, e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{AppId, Occupant};
    use crate::resource::ResourceVector;
    use crate::topology;

    #[test]
    fn strip_tracks_occupancy_classes() {
        let mut p = topology::dsp_line(4);
        let e: Vec<_> = p.element_ids().collect();
        p.claim(e[0], Occupant { app: AppId(0), task: 0, claimed: ResourceVector::ZERO }).unwrap();
        p.claim(e[1], Occupant { app: AppId(0), task: 1, claimed: ResourceVector::ZERO }).unwrap();
        p.claim(e[1], Occupant { app: AppId(0), task: 2, claimed: ResourceVector::ZERO }).unwrap();
        p.fail_element(e[3]);
        assert_eq!(render_strip(&p), "o8.X");
    }
}
