//! Scale curve — what one request costs as the platform grows and the
//! request does not.
//!
//! The same request stream (the six Table-I datasets, interleaved) churns
//! on 1, 4, 16 and 64 tiled CRISP boards (`topology::crisp_tiles`): every
//! board has its own FPGA and ARM host, so an application's I/O can find a
//! host on its own board. Residents are capped per board (oldest released
//! first), so the load per board is the same at every size. Per size the
//! table prints the mean per-phase wall-clock time of the admissions, of
//! the refusals by the phase that refused them, and the admissions' hops
//! per channel, which shows how far the requests themselves grow. A
//! per-request cost that grows down a column while the hops stay put is a
//! platform-sized walk. Nothing is gated: the numbers are host-dependent.

use std::collections::VecDeque;
use std::time::Duration;

use kairos_appgen::{generate_dataset, DatasetSpec};
use kairos_bench::{print_table, EXPERIMENT_SEED};
use kairos_core::{Kairos, KairosConfig, Phase, PhaseTimings};
use kairos_platform::{topology, AppId};

/// Board counts swept.
const TILES: [usize; 4] = [1, 4, 16, 64];
/// Applications generated per dataset for the stream.
const APPS_PER_DATASET: usize = 100;
/// Residents kept per board before the oldest is released.
const RESIDENTS_PER_TILE: usize = 4;
/// Requests measured per size, after the warm-up fill.
const MEASURED: usize = 3000;

/// Per-phase time summed over a set of requests, with their count.
#[derive(Default)]
struct Bucket {
    timings: PhaseTimings,
    count: u32,
}

impl Bucket {
    fn record(&mut self, timings: &PhaseTimings) {
        self.timings.accumulate(timings);
        self.count += 1;
    }

    /// Mean µs in `phase`, or `-` when empty.
    fn us(&self, phase: Phase) -> String {
        if self.count == 0 {
            return "-".into();
        }
        let mean: Duration = self.timings.phase(phase) / self.count;
        format!("{:.2}", mean.as_secs_f64() * 1e6)
    }

    /// Mean µs over all four phases, or `-` when empty.
    fn total_us(&self) -> String {
        if self.count == 0 {
            return "-".into();
        }
        let total: Duration = Phase::ALL.iter().map(|&p| self.timings.phase(p)).sum();
        format!("{:.2}", (total / self.count).as_secs_f64() * 1e6)
    }
}

fn main() {
    let mut stream = Vec::new();
    let datasets: Vec<_> = DatasetSpec::all()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| generate_dataset(spec, APPS_PER_DATASET, EXPERIMENT_SEED ^ i as u64))
        .collect();
    for i in 0..APPS_PER_DATASET {
        stream.extend(datasets.iter().filter_map(|apps| apps.get(i).cloned()));
    }

    let mut admitted_rows = Vec::new();
    let mut refused_rows = Vec::new();
    for tiles in TILES {
        let platform = topology::crisp_tiles(tiles);
        let elements = platform.element_count();
        let mut kairos = Kairos::new(platform, KairosConfig::default());
        let cap = RESIDENTS_PER_TILE * tiles;
        let warm_up = 2 * cap;
        let mut resident: VecDeque<AppId> = VecDeque::new();
        let mut admitted = Bucket::default();
        let mut refused: [Bucket; 4] = Default::default();
        let (mut hops, mut channels) = (0usize, 0usize);
        for (i, app) in stream.iter().cycle().take(warm_up + MEASURED).enumerate() {
            let measured = i >= warm_up;
            match kairos.admit(app) {
                Ok(report) => {
                    resident.push_back(report.app_id);
                    if measured {
                        admitted.record(&report.timings);
                        hops += report.layout.total_hops();
                        channels += report.layout.routes.len();
                    }
                }
                Err(failure) if measured => {
                    refused[failure.phase() as usize].record(&failure.timings);
                }
                Err(_) => {}
            }
            while resident.len() > cap {
                kairos.release(resident.pop_front().expect("over the cap"));
            }
        }
        let hops_per_channel = hops as f64 / channels.max(1) as f64;
        let mut row = vec![tiles.to_string(), elements.to_string(), admitted.count.to_string()];
        row.extend(Phase::ALL.iter().map(|&p| admitted.us(p)));
        row.push(admitted.total_us());
        row.push(format!("{hops_per_channel:.3}"));
        admitted_rows.push(row);

        let mut row = vec![tiles.to_string()];
        for (phase, bucket) in Phase::ALL.iter().zip(&refused) {
            row.push(bucket.count.to_string());
            row.push(bucket.us(*phase));
            row.push(bucket.total_us());
        }
        refused_rows.push(row);
    }

    print_table(
        "Scale curve: admissions, mean µs per phase",
        &[
            "boards",
            "elements",
            "admitted",
            "binding",
            "mapping",
            "routing",
            "validation",
            "total",
            "hops/channel",
        ],
        &admitted_rows,
    );
    print_table(
        "Scale curve: refusals by phase — count, µs in the refusing phase, µs in all",
        &[
            "boards",
            "binding n",
            "µs",
            "all µs",
            "mapping n",
            "µs",
            "all µs",
            "routing n",
            "µs",
            "all µs",
            "validation n",
            "µs",
            "all µs",
        ],
        &refused_rows,
    );
    println!(
        "\n{RESIDENTS_PER_TILE} residents per board, {MEASURED} requests measured per size after \
         a fill of two requests per resident slot; a column that grows with the boards is a \
         per-request cost paid for the platform."
    );
}
