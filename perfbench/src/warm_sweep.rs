//! `warm_sweep`: one DSE sweep per operation. Capture the shared prefix
//! with `snapshot_prefix` at a seeded fork fraction in [1/2, 9/10], then
//! run `sweep_warm_fork` over K CPU-clock points.
//!
//! The oracle re-simulates sampled points cold (build, run to the fork,
//! retune the clock, run on) and requires equal records.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use drcf_dse::prelude::{sweep_warm_fork, RunRecord, WarmFork};
use drcf_kernel::prelude::{SimDuration, SimTime};
use drcf_soc::prelude::{build_soc, restore_soc, run_soc_mut, snapshot_prefix, BuiltSoc, Cpu};

use crate::scenario::{self, Scenario, Stratum};
use crate::soc_runs::add_run_counters;
use crate::trace::Tracer;
use crate::util::{Agg, Counters, Rng};
use crate::{Bench, OpOut};

/// Clock points per sweep.
const K: usize = 6;

struct Sweep {
    s: Scenario,
    fork_frac: f64,
    fork: SimDuration,
    clocks: Vec<u64>,
}

pub struct WarmSweep {
    sweeps: Vec<Sweep>,
    /// First-pass records, for the oracle.
    records: Vec<Option<Vec<RunRecord>>>,
    /// Passes begun; 0 during warm-up.
    pass: usize,
    workers: usize,
}

impl WarmSweep {
    pub fn new(seed: u64, ops: Option<usize>) -> Result<WarmSweep, String> {
        let mut rng = Rng::new(seed ^ 0x5745_4550);
        // One sweep per family x mapping x copy mode x frames x samples;
        // the fork fractions are a seeded Latin-hypercube sample of
        // [1/2, 9/10]. Within each family x mapping x copy cell the four
        // arbiter x technology pairs form a Latin square over frames and
        // samples, shifted by a seeded offset, so every seed runs each pair
        // equally often at every size and a pass costs nearly the same.
        let levels = scenario::factorial(&[3, 3, 2, 4, 4]);
        let offsets: Vec<usize> = (0..18).map(|_| rng.range(0, 3) as usize).collect();
        let n = ops.unwrap_or(levels.len()).min(levels.len());
        let mut fracs: Vec<f64> = (0..n)
            .map(|j| 0.5 + 0.4 * (j as f64 + rng.unit(0.0, 1.0)) / n as f64)
            .collect();
        rng.shuffle(&mut fracs);
        let mut sweeps = Vec::new();
        for (l, &fork_frac) in levels.iter().zip(&fracs) {
            let pair = (l[3] + l[4] + offsets[l[0] * 6 + l[1] * 2 + l[2]]) % 4;
            let st = Stratum {
                family: l[0],
                mapping: l[1],
                copy: l[2],
                arbiter: pair % 2,
                frames: l[3],
                samples: l[4],
                tech: pair / 2,
            };
            let s = scenario::scenario(&mut rng, st);
            // Input generation: the straight makespan places the fork.
            let mut soc = build_soc(&s.workload, &s.spec).map_err(|e| e.to_string())?;
            let m = run_soc_mut(&mut soc);
            if !m.ok {
                return Err(format!("calibration run of {} failed", s.label));
            }
            let fork = SimDuration::fs((m.makespan.as_fs() as f64 * fork_frac) as u64);
            // One clock from each of K disjoint 80 MHz bands over 100..575.
            let clocks: Vec<u64> = (0..K as u64)
                .map(|b| 100 + 80 * b + 5 * rng.range(0, 15))
                .collect();
            sweeps.push(Sweep {
                s,
                fork_frac,
                fork,
                clocks,
            });
        }
        rng.shuffle(&mut sweeps);
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .clamp(1, K);
        Ok(WarmSweep {
            records: vec![None; sweeps.len()],
            pass: 0,
            sweeps,
            workers,
        })
    }
}

fn record(clock: u64, fork: SimDuration, m: &drcf_soc::prelude::RunMetrics) -> RunRecord {
    RunRecord::from_metrics(
        "warm_sweep",
        vec![
            ("clock_mhz".into(), clock.to_string()),
            ("fork_fs".into(), fork.as_fs().to_string()),
        ],
        m,
    )
}

/// Per-worker closure timeline: when each worker's last closure ended, and
/// the summed gaps between closures (the runner's rewind and bookkeeping).
#[derive(Default)]
struct Timeline {
    last_end: HashMap<ThreadId, Instant>,
    gap_s: f64,
    busy_s: f64,
    builds: u64,
}

impl Timeline {
    fn enter(&mut self, now: Instant) {
        if let Some(end) = self.last_end.get(&std::thread::current().id()) {
            self.gap_s += (now - *end).as_secs_f64();
        }
    }

    fn leave(&mut self, start: Instant) {
        let now = Instant::now();
        self.busy_s += (now - start).as_secs_f64();
        self.last_end.insert(std::thread::current().id(), now);
    }
}

impl Bench for WarmSweep {
    fn mix(&self) -> Vec<String> {
        let scen: Vec<Scenario> = self.sweeps.iter().map(|w| w.s.clone()).collect();
        let mut bands = [0usize; 4];
        for w in &self.sweeps {
            bands[(((w.fork_frac - 0.5) * 10.0) as usize).min(3)] += 1;
        }
        vec![
            format!(
                "{} sweeps of {K} CPU-clock points; {}",
                self.sweeps.len(),
                scenario::size_mix(&scen)
            ),
            format!(
                "fork fractions: [0.5,0.6)={} [0.6,0.7)={} [0.7,0.8)={} [0.8,0.9]={}",
                bands[0], bands[1], bands[2], bands[3]
            ),
        ]
    }

    fn parallelism(&self) -> String {
        format!(
            "workers={} (sweep_warm_fork, min(nproc, K={K})) shards=1",
            self.workers
        )
    }

    fn op_count(&self) -> usize {
        self.sweeps.len()
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.pass += 1;
        Ok(())
    }

    fn op(&mut self, i: usize, tr: &Tracer, host: &mut Counters) -> OpOut {
        let sw = &self.sweeps[i];
        let (w, spec) = (&sw.s.workload, &sw.s.spec);
        let snap = {
            let _g = tr.span("soc.snapshot_prefix", 0);
            match snapshot_prefix(w, spec, sw.fork) {
                Ok(s) => s,
                Err(_) => return OpOut::failed(),
            }
        };
        let per_point: Mutex<BTreeMap<u64, Counters>> = Mutex::new(BTreeMap::new());
        let timeline = Mutex::new(Timeline::default());
        let traced = tr.enabled();
        let t_sweep = Instant::now();
        let records = {
            let sweep = tr.span("dse.sweep", 0);
            let sid = sweep.id;
            sweep_warm_fork(
                &sw.clocks,
                &snap,
                WarmFork::default(),
                || {
                    let start = Instant::now();
                    if traced {
                        timeline.lock().expect("timeline").enter(start);
                    }
                    let built = {
                        let b = tr.span("dse.build", sid);
                        let _r = tr.span("kernel.snapshot.restore", b.id);
                        restore_soc(w, spec, &snap)
                    };
                    if traced {
                        let mut t = timeline.lock().expect("timeline");
                        t.builds += 1;
                        t.leave(start);
                    }
                    built
                },
                |&clock: &u64, soc: &mut BuiltSoc| {
                    let start = Instant::now();
                    if traced {
                        timeline.lock().expect("timeline").enter(start);
                    }
                    let e = tr.span("dse.eval", sid);
                    let cpu = soc.cpu;
                    soc.sim.get_mut::<Cpu>(cpu).set_clock_mhz(clock);
                    let before = soc.sim.metrics();
                    let m = {
                        let _k = tr.span("kernel.run", e.id);
                        run_soc_mut(soc)
                    };
                    let after = soc.sim.metrics();
                    let mut c = Counters::default();
                    let d = |f: fn(&drcf_kernel::prelude::KernelMetrics) -> u64| {
                        (f(&after) - f(&before)) as f64
                    };
                    c.add("kernel.events", Agg::Sum, d(|k| k.dispatched));
                    c.add("kernel.delta_cycles", Agg::Sum, d(|k| k.delta_cycles));
                    c.add("kernel.timesteps", Agg::Sum, d(|k| k.timesteps));
                    c.add("kernel.notifications", Agg::Sum, d(|k| k.notifications));
                    c.add("kernel.heap_events", Agg::Sum, d(|k| k.heap_events));
                    c.add(
                        "kernel.queue_high_water",
                        Agg::Max,
                        after.queue_high_water as f64,
                    );
                    add_run_counters(&mut c, &m);
                    per_point.lock().expect("counters").insert(clock, c);
                    let rec = record(clock, sw.fork, &m);
                    drop(e);
                    if traced {
                        timeline.lock().expect("timeline").leave(start);
                    }
                    rec
                },
            )
        };
        let sweep_s = t_sweep.elapsed().as_secs_f64();
        let mut counters = Counters::default();
        let per_point = per_point.into_inner().expect("counters");
        for c in per_point.values() {
            counters.merge(c);
        }
        if traced {
            let t = timeline.into_inner().expect("timeline");
            host.add("dse.rewind_gap_s", Agg::Mean, t.gap_s);
            host.add(
                "dse.points_per_build",
                Agg::Mean,
                K as f64 / t.builds.max(1) as f64,
            );
            host.add(
                "dse.worker_idle_frac",
                Agg::Mean,
                1.0 - (t.busy_s + t.gap_s) / (self.workers as f64 * sweep_s),
            );
            host.add(
                "trace.kernel_events",
                Agg::Sum,
                counters.get("kernel.events"),
            );
        }
        let ok = records.len() == K && records.iter().all(|r| r.ok);
        let fork_us = sw.fork.as_us_f64();
        let sim_us = fork_us
            + records
                .iter()
                .map(|r| r.makespan_ns / 1e3 - fork_us)
                .sum::<f64>();
        if self.pass == 1 {
            self.records[i] = Some(records.clone());
        }
        OpOut {
            ok,
            output: Box::new(records),
            sim_us,
            points: K as u64,
            counters,
        }
    }

    fn probe(&mut self, i: usize, tr: &Tracer, _host: &mut Counters) {
        let _ = same_cut(&self.sweeps[i], tr);
    }

    fn check(
        &mut self,
        _outs: &[(OpOut, u64)],
        _lat_ms: &[f64],
        host: Option<&mut Counters>,
    ) -> (Vec<bool>, Counters) {
        let traced = host.is_some();
        let mut extra = Counters::default();
        let off = Tracer::new(false);
        let verdicts = self
            .sweeps
            .iter()
            .enumerate()
            .map(|(i, sw)| {
                if traced {
                    if let Some(c) = same_cut(sw, &off) {
                        extra.merge(&c);
                    }
                }
                let Some(records) = &self.records[i] else {
                    return false;
                };
                // Sampled points: the first and one chosen by the op index.
                let sample = [0, 1 + i % (K - 1)];
                sample.iter().all(|&p| {
                    let clock = sw.clocks[p];
                    let Ok(mut soc) = build_soc(&sw.s.workload, &sw.s.spec) else {
                        return false;
                    };
                    if soc.sim.run_until(SimTime::ZERO + sw.fork).is_err() {
                        return false;
                    }
                    let cpu = soc.cpu;
                    soc.sim.get_mut::<Cpu>(cpu).set_clock_mhz(clock);
                    let m = run_soc_mut(&mut soc);
                    m.ok && record(clock, sw.fork, &m) == records[p]
                })
            })
            .collect();
        (verdicts, extra)
    }
}

/// Full and delta snapshot bytes at ONE cut (the fork): a parent capture at
/// half the fork, then both documents at the fork itself. The full capture
/// is timed as the snapshot layer's capture cost.
fn same_cut(sw: &Sweep, tr: &Tracer) -> Option<Counters> {
    let mut soc = build_soc(&sw.s.workload, &sw.s.spec).ok()?;
    let half = SimDuration::fs(sw.fork.as_fs() / 2);
    soc.sim.run_until(SimTime::ZERO + half).ok()?;
    let parent = soc.sim.snapshot().ok()?;
    soc.sim.run_until(SimTime::ZERO + sw.fork).ok()?;
    let delta = soc.sim.snapshot_delta(&parent).ok()?;
    let dirty = soc.sim.metrics().snapshot_dirty_components;
    let full = {
        let _g = tr.span("kernel.snapshot.capture", 0);
        soc.sim.snapshot().ok()?
    };
    let mut c = Counters::default();
    c.add(
        "kernel.snapshot.full_bytes",
        Agg::Sum,
        full.byte_len() as f64,
    );
    c.add(
        "kernel.snapshot.delta_bytes",
        Agg::Sum,
        delta.byte_len() as f64,
    );
    c.add("kernel.snapshot.dirty_components", Agg::Sum, dirty as f64);
    Some(c)
}
