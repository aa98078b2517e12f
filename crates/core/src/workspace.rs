//! The pipeline's working memory.
//!
//! Every transient structure the four phases fill while deciding one
//! admission — binding's regret order and debit overlay, mapping's search
//! sets, distance rows, GAP state, ring decomposition (for seeds the
//! application keeps none for), debit overlay and seats, routing's BFS
//! tables, link overlay and route buffer, validation's layout model and
//! cycle-ratio vectors — lives in one
//! [`Workspace`] that a [`Kairos`] keeps between calls, so a warm admission
//! takes from the heap only what outlives it. So does what the manager
//! needs around the phases: the writer check's sums, the elements a
//! probed decision newly uses, the elements a release visits, and the
//! what-if copy of the platform. Each
//! phase's part is declared beside the code that uses it; this module
//! assembles them and provides the one shared building block, the
//! generation-stamped [`Marks`].
//!
//! The rule every part follows is **clear before use**: a phase empties (or
//! re-stamps) each buffer before its first read of it, sized for the
//! platform and application at hand (the two debit overlays through the
//! list of what the last call wrote there: its seats, its route links;
//! the writer check likewise), and the what-if copy is brought to the live
//! platform's state before each use.
//! No decision reads anything across calls, so a workspace carries
//! capacity and never a decision — which is why [`Workspace::clone`] hands
//! out an empty one, checkpoints leave it out, and the public phase
//! functions can run on a throw-away instance.
//!
//! [`Kairos`]: crate::Kairos

use kairos_platform::{ElementId, Platform};

use crate::binding::BindingScratch;
use crate::cache::FitScratch;
use crate::mapping::MappingScratch;
use crate::routing::RoutingScratch;
use crate::validation::ValidationScratch;

/// The working memory of one pipeline: see the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    pub binding: BindingScratch,
    pub mapping: MappingScratch,
    pub routing: RoutingScratch,
    pub validation: ValidationScratch,
    /// The writer's check, `cache::point_fits`.
    pub fit: FitScratch,
    /// The elements a probed decision newly uses (`Kairos::probe_admit`).
    pub seated: Marks,
    /// The distinct elements of a released application's placement,
    /// ascending (`Kairos::release_claims_of`).
    pub held: Vec<ElementId>,
    /// The platform the manager decides its what-ifs on, made on first
    /// use (`Kairos::on_copy`).
    pub what_if: Option<Platform>,
}

impl Clone for Workspace {
    /// A workspace holds nothing worth copying: the clone starts empty and
    /// grows on its owner's first admission.
    fn clone(&self) -> Self {
        Workspace::default()
    }
}

/// A dense set over `0..len` that empties in O(1): a cell is a member when
/// it carries the current generation's stamp, so starting a new generation
/// forgets every member at once. Only when the generation counter is about
/// to wrap are the cells actually rewritten.
#[derive(Debug, Clone, Default)]
pub(crate) struct Marks {
    stamp: Vec<u32>,
    /// Stamp of the current members; never 0, the stamp of a fresh cell.
    generation: u32,
}

impl Marks {
    /// Empties the set and sizes it for indices below `len`.
    pub fn reset(&mut self, len: usize) {
        if self.stamp.len() != len || self.generation == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(len, 0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Adds `index`; `true` when it was not yet a member.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        std::mem::replace(&mut self.stamp[index], self.generation) != self.generation
    }

    /// Whether `index` is a member.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.stamp[index] == self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind_in;
    use crate::cache::replay_point;
    use crate::error::AllocationError;
    use crate::layout::ExecutionLayout;
    use crate::mapping::{map_application_in, MapperConfig};
    use crate::routing::{route_channels_in, RouteAlgorithm};
    use crate::validation::{validate_in, ValidationConfig, ValidationReport};
    use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, AppId, ElementKind, Platform, ResourceVector};

    /// The four phases on `platform`, in `workspace`, and the admission
    /// committed.
    fn pipeline(
        workspace: &mut Workspace,
        app: &Application,
        platform: &mut Platform,
    ) -> Result<(ExecutionLayout, ValidationReport), AllocationError> {
        let binding = bind_in(app, platform, &mut workspace.binding)?;
        let placement = map_application_in(
            app,
            &binding,
            platform,
            &MapperConfig::default(),
            &mut workspace.mapping,
        )?
        .placement;
        let routes = route_channels_in(
            app,
            &placement,
            platform,
            RouteAlgorithm::Bfs,
            &mut workspace.routing,
        )?;
        let layout = ExecutionLayout { binding, placement, routes };
        let config = ValidationConfig::default();
        let report = validate_in(app, &layout, &config, &mut workspace.validation)?;
        let bandwidths = app.channels().map(|c| c.bandwidth());
        let seats = workspace.mapping.seats();
        replay_point(platform, AppId(7), seats, &layout.routes, bandwidths);
        Ok((layout, report))
    }

    /// A chain of `tasks` DSP tasks of `cpu` each over `bandwidth` channels.
    fn chain(tasks: usize, cpu: u64, bandwidth: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 30, 1);
        let mut b = ApplicationBuilder::new(format!("chain{tasks}"));
        let ids: Vec<_> = (0..tasks)
            .map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]))
            .collect();
        for pair in ids.windows(2) {
            b.add_channel(pair[0], pair[1], bandwidth, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn no_buffer_shows_a_stale_tail_to_the_next_request() {
        // One workspace through requests that shrink and grow in every
        // dimension a buffer is sized by — tasks, channels, elements — and
        // through refusals that leave a phase half way: each must decide,
        // and leave the platform, as a workspace of its own would.
        let steps: [(Platform, Application); 8] = [
            (topology::dsp_mesh(4, 4), chain(16, 900, 40)), // platform-sized
            (topology::dsp_mesh(4, 4), chain(1, 100, 0)),
            (topology::heterogeneous_mesh(8, 8), chain(12, 700, 200)),
            (topology::dsp_line(2), chain(2, 600, 10)), // a smaller platform
            (topology::crisp(), chain(9, 800, 300)),
            (topology::crisp(), chain(2, 600, 1_000_000)), // refused while routing
            (topology::dsp_mesh(2, 2), chain(5, 900, 10)), // refused while binding
            (topology::crisp(), chain(3, 400, 120)),
        ];
        let mut shared = Workspace::default();
        let mut outcomes = Vec::new();
        for (platform, app) in steps {
            let (mut warm, mut cold) = (platform.clone(), platform);
            let decided = pipeline(&mut shared, &app, &mut warm);
            assert_eq!(decided, pipeline(&mut Workspace::default(), &app, &mut cold), "{app}");
            assert_eq!(warm.checkpoint(), cold.checkpoint(), "{app}");
            outcomes.push(decided.is_ok());
        }
        assert_eq!(outcomes, [true, true, true, true, true, false, false, true]);
        // And a clone is an empty workspace, not a copy of a used one.
        assert_eq!(format!("{:?}", shared.clone()), format!("{:?}", Workspace::default()));
    }

    #[test]
    fn a_reset_forgets_every_member() {
        let mut marks = Marks::default();
        marks.reset(4);
        assert!(marks.insert(1) && marks.insert(3));
        assert!(!marks.insert(1), "already a member");
        assert!(marks.contains(3) && !marks.contains(0));
        marks.reset(4);
        assert!((0..4).all(|i| !marks.contains(i)));
        assert!(marks.insert(3));
        // Another size: every cell starts over.
        marks.reset(2);
        assert!((0..2).all(|i| !marks.contains(i)));
    }

    #[test]
    fn a_generation_past_wrap_around_still_reads_every_cell_unvisited() {
        let mut marks = Marks::default();
        marks.reset(3);
        // Cell 0 was last stamped in generation 1, cell 1 in the last
        // generation before the wrap: the two stamps a counter that simply
        // wrapped to 0 and on to 1 would mistake for current.
        marks.insert(0);
        marks.generation = u32::MAX - 1;
        marks.reset(3);
        assert_eq!(marks.generation, u32::MAX);
        marks.insert(1);
        for _ in 0..3 {
            marks.reset(3);
            assert_ne!(marks.generation, 0, "0 is the stamp of a fresh cell");
            assert!((0..3).all(|i| !marks.contains(i)), "generation {}", marks.generation);
            assert!(marks.insert(2) && marks.contains(2));
        }
    }
}
