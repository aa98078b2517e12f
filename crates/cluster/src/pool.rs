//! The persistent worker-pool probe executor.
//!
//! Spawning one OS thread per shard for every probe fan-out would pay
//! thread creation and teardown on each arrival. The pool keeps one
//! long-lived worker per shard instead (multi-shard clusters only; a
//! one-shard cluster probes inline, preserving monolithic
//! byte-identity, and so does a wave of one application — a probe is
//! cheaper than the two wake-ups that would carry it to a worker and
//! back): a probe wave **lends** each shard's manager to its
//! worker through a job channel (plain ownership transfer — no locks, no
//! shared mutable state, which also keeps the cluster's `&`-returning
//! accessors sound: the manager is always checked back in before any
//! other method runs), the worker probes the whole wave against its
//! region, and the coordinator takes the manager back together with the
//! fit row — receiving **in shard-id order**, so thread scheduling can
//! never leak into a placement decision.
//!
//! Per-shard probe-timing histograms are recorded inside the workers;
//! that stays byte-deterministic because histogram recording is
//! commutative (see the cluster metrics docs) and under the
//! deterministic zero clock every recorded duration is `0`.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use kairos_app::Application;
use kairos_svc::KairosService;
use kairos_telemetry::{Histogram, Telemetry};

use crate::cluster::probe_all;
use crate::policy::ShardFit;

/// One wave of work for a worker: the shard's manager (lent for the
/// duration of the wave) and the applications to probe.
type Job = (KairosService, Arc<Vec<Application>>);

/// What comes back: the manager, plus one fit per wave application.
type Done = (KairosService, Vec<Option<ShardFit>>);

struct Worker {
    /// `None` only while the pool is shutting down (dropping the sender
    /// ends the worker's receive loop).
    jobs: Option<Sender<Job>>,
    done: Receiver<Done>,
    handle: Option<JoinHandle<()>>,
}

/// One long-lived probe worker per shard. Dropping the pool drops the
/// job channels and joins every worker, so no thread outlives the
/// cluster that spawned it.
pub(crate) struct ProbePool {
    workers: Vec<Worker>,
}

impl std::fmt::Debug for ProbePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbePool").field("workers", &self.workers.len()).finish()
    }
}

impl ProbePool {
    /// Spawns one worker per shard. Each worker holds its shard's
    /// probe-latency histogram handle (when telemetry is lit) and a clone
    /// of the telemetry hub for its clock, so timings are recorded where
    /// the work happens.
    pub(crate) fn new(
        shards: usize,
        telemetry: &Telemetry,
        probe_ns: Option<&[Arc<Histogram>]>,
    ) -> Self {
        let workers = (0..shards)
            .map(|i| {
                let (jobs, job_rx) = channel::<Job>();
                let (done_tx, done) = channel::<Done>();
                let hist = probe_ns.map(|h| h[i].clone());
                let telemetry = telemetry.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("kairos-probe-{i}"))
                    .spawn(move || {
                        while let Ok((mut service, apps)) = job_rx.recv() {
                            let fits =
                                probe_all(&mut service, apps.as_slice(), &telemetry, hist.as_ref());
                            if done_tx.send((service, fits)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn probe worker");
                Worker { jobs: Some(jobs), done, handle: Some(handle) }
            })
            .collect();
        ProbePool { workers }
    }

    /// Lends `service` to worker `shard` for one pass over `apps`.
    pub(crate) fn submit(&self, shard: usize, service: KairosService, apps: Arc<Vec<Application>>) {
        self.workers[shard]
            .jobs
            .as_ref()
            .expect("pool is alive")
            .send((service, apps))
            .expect("probe worker died");
    }

    /// Takes worker `shard`'s manager back together with its fit row.
    /// Collecting in shard-id order re-imposes determinism on the merged
    /// results regardless of which worker finished first.
    pub(crate) fn collect(&self, shard: usize) -> (KairosService, Vec<Option<ShardFit>>) {
        self.workers[shard].done.recv().expect("probe worker died")
    }
}

impl Drop for ProbePool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            worker.jobs.take(); // hang up: ends the worker's receive loop
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}
