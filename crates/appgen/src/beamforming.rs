//! The beamforming case-study application (paper §IV-A).
//!
//! "Containing 53 tasks in a tree-like structure, this application requires
//! all 45 DSPs available in the platform, and can thus be considered to be a
//! difficult mapping problem."
//!
//! The reconstruction (the original is CRISP-project proprietary) is a
//! systolic delay-and-sum beamformer: each antenna group is a *chain* of
//! beam stages that accumulates partial sums, one group per platform
//! package, with a combiner chain merging group results into the ARM host:
//!
//! ```text
//! adc (FPGA) ─┬─> dist0 (MEM) ─> beam0 ─> beam1 ─> ... ─> beam7 ──> comb0 ─┐
//!             ├─> dist1 (MEM) ─> beam8 ─> ... ─────────> beam15 ─> comb1 ─┤   (partial-sum
//!             ├─> ...                                                     ...  chain)
//!             └─> dist4 (MEM) ─> beam32 ─> ... ────────> beam39 ─> comb4 ─┴─> acc (ARM) ─> mon (ARM)
//! ```
//!
//! (each `comb_p` feeds `comb_{p+1}`; `comb4` feeds `acc`.)
//!
//! One source + 5 distributors + 40 beam stages + 5 combiners + 1
//! accumulator + 1 monitor = **53 tasks**; 45 of them (beam stages plus
//! combiners) each claim more than half a DSP, so every one of the 45 DSPs must
//! host exactly one — the "all 45 DSPs" property that makes the mapping
//! tight, and the chain structure makes admission succeed only when the
//! cost-function weights produce contiguous, communication-local layouts
//! (the Fig. 10 experiment).

use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_platform::{ElementKind, ResourceVector};

/// Number of antenna-channel beam-stage tasks.
pub const BEAM_TASKS: usize = 40;
/// Number of partial-sum combiner tasks.
pub const COMBINER_TASKS: usize = 5;
/// Total task count of the case-study application.
pub const TOTAL_TASKS: usize = 53;

/// DSP compute demand per beam/combiner task (out of 1000); anything above
/// 500 forces one task per DSP.
const DSP_LOAD: u64 = 600;
/// Bandwidth of the beam-chain and combiner-chain channels.
const STREAM_BANDWIDTH: u64 = 155;
/// Bandwidth of the source fan-out channels.
const FEED_BANDWIDTH: u64 = 250;

/// Builds the 53-task beamforming application.
///
/// # Examples
///
/// ```
/// use kairos_appgen::beamforming;
///
/// let app = beamforming::beamforming_app();
/// assert_eq!(app.task_count(), beamforming::TOTAL_TASKS);
/// assert!(app.is_connected());
/// ```
pub fn beamforming_app() -> Application {
    let mut b = ApplicationBuilder::new("beamforming");

    let fpga_imp =
        Implementation::new(ElementKind::Fpga, ResourceVector::new(200, 64, 4000, 2), 120, 20);
    let mem_imp =
        Implementation::new(ElementKind::Memory, ResourceVector::new(0, 2500, 0, 0), 60, 5);
    let dsp_imp =
        Implementation::new(ElementKind::Dsp, ResourceVector::new(DSP_LOAD, 24, 0, 0), 100, 10);
    let arm_acc =
        Implementation::new(ElementKind::Arm, ResourceVector::new(300, 256, 0, 1), 150, 15);
    let arm_mon = Implementation::new(ElementKind::Arm, ResourceVector::new(150, 128, 0, 1), 80, 8);

    let adc = b.add_task("adc", TaskRole::Input, vec![fpga_imp]);

    let groups = COMBINER_TASKS;
    let beams_per_group = BEAM_TASKS / groups;
    let mut combiners = Vec::with_capacity(groups);
    for g in 0..groups {
        let dist = b.add_task(format!("dist{g}"), TaskRole::Internal, vec![mem_imp]);
        b.add_channel(adc, dist, FEED_BANDWIDTH, 1);
        // Systolic beam chain: dist -> beam0 -> beam1 -> ... -> beam7.
        let mut prev = dist;
        for i in 0..beams_per_group {
            let beam = b.add_task(
                format!("beam{}", g * beams_per_group + i),
                TaskRole::Internal,
                vec![dsp_imp],
            );
            b.add_channel(prev, beam, STREAM_BANDWIDTH, 1);
            prev = beam;
        }
        // Group combiner terminates the chain.
        let comb = b.add_task(format!("comb{g}"), TaskRole::Internal, vec![dsp_imp]);
        b.add_channel(prev, comb, STREAM_BANDWIDTH, 1);
        combiners.push(comb);
    }

    // Partial-sum combiner chain, ending in the ARM accumulator.
    for pair in combiners.windows(2) {
        b.add_channel(pair[0], pair[1], STREAM_BANDWIDTH, 1);
    }
    let acc = b.add_task("acc", TaskRole::Output, vec![arm_acc]);
    b.add_channel(*combiners.last().expect("at least one group"), acc, STREAM_BANDWIDTH, 1);
    let mon = b.add_task("mon", TaskRole::Internal, vec![arm_mon]);
    b.add_channel(acc, mon, 30, 1);

    let app = b.build().expect("beamformer is structurally valid");
    debug_assert_eq!(app.task_count(), TOTAL_TASKS);
    app
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_inventory_matches_the_paper() {
        let app = beamforming_app();
        assert_eq!(app.task_count(), 53);
        let dsp_tasks =
            app.tasks().filter(|t| t.implementations()[0].target() == ElementKind::Dsp).count();
        assert_eq!(dsp_tasks, 45, "needs all 45 DSPs of the CRISP platform");
    }

    #[test]
    fn structure_is_a_connected_tree_with_fanout() {
        let app = beamforming_app();
        assert!(app.is_connected());
        // adc fans out to the 5 distributors.
        assert_eq!(app.consumers(kairos_app::TaskId(0)).len(), 5);
        // 5 feeds + 5*(8 chain hops + 1 into comb) + 4 comb chain + 1 to acc
        // + 1 acc->mon
        assert_eq!(app.channel_count(), 5 + 5 * 9 + 4 + 1 + 1);
    }

    #[test]
    fn dsp_tasks_exceed_half_an_element() {
        let app = beamforming_app();
        for task in app.tasks() {
            let imp = &task.implementations()[0];
            if imp.target() == ElementKind::Dsp {
                assert!(imp.requires().get(kairos_platform::ResourceKind::Compute) > 500);
            }
        }
    }

    #[test]
    fn beam_chains_are_chains() {
        let app = beamforming_app();
        // Every beam task has exactly one producer and one consumer.
        for task in app.tasks() {
            if task.name().starts_with("beam") {
                assert_eq!(app.producers(task.id()).len(), 1, "{}", task.name());
                assert_eq!(app.consumers(task.id()).len(), 1, "{}", task.name());
            }
        }
    }
}
