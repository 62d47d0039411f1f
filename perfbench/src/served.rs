//! `served_sweeps`: one `Client::sweep` per operation to a `SweepServer`
//! whose store is empty at the start of every pass.
//!
//! The seeded request stream is a run of episodes, one per new scenario.
//! Each episode holds 1 cold request (new scenario), 2 extends (a fork
//! beyond the stored tip), 3 restores (new points at a stored fork) and 4
//! replays (every point already recorded), so every class is at least a
//! tenth of the stream and reads and writes share it.
//!
//! The oracle replays the same stream with `process_sweep` on a second,
//! fresh store and requires equal records.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use drcf_kernel::json::{ju64_of, Json};
use drcf_serve::prelude::{process_sweep, Client, SnapshotStore, SweepRequest, SweepServer};
use drcf_soc::prelude::{build_soc, run_soc_mut};

use crate::trace::Tracer;
use crate::util::{digest_of, median, Agg, Counters, Rng};
use crate::{Bench, OpOut};

/// Clock points per request.
const K: usize = 3;
const CLASSES: [&str; 4] = ["replay", "restore", "extend", "cold"];

struct Req {
    class: usize,
    req: SweepRequest,
    /// Simulated microseconds of prefix the server must run for this
    /// request (the fork for cold, the gap past the tip for extend).
    prefix_us: f64,
}

pub struct Served {
    stream: Vec<Req>,
    episodes: Vec<(usize, usize)>,
    /// Fork fractions of the makespan per episode stage (cold, extend, extend).
    fork_fracs: [Vec<f64>; 3],
    server: Option<(SweepServer, Client, PathBuf)>,
    workers: usize,
}

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(format!(".bench_out/{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Served {
    pub fn new(seed: u64, ops: Option<usize>) -> Result<Served, String> {
        let mut rng = Rng::new(seed ^ 0x5345_5256);
        // One episode per scenario of 2..=4 frames x 64..=208 samples, in
        // seeded order; the seed draws forks and clock points. Twelve
        // episodes keep a pass short, so each request is timed in many
        // passes.
        let mut episodes: Vec<(usize, usize)> = (2..=4)
            .flat_map(|f| (0..4).map(move |k| (f, 64 + 48 * k)))
            .collect();
        rng.shuffle(&mut episodes);
        let mut stream = Vec::new();
        let mut fork_fracs: [Vec<f64>; 3] = Default::default();
        for &(frames, samples) in &episodes {
            let probe = SweepRequest {
                frames,
                samples,
                fork_ns: 1,
                points: vec![1],
            };
            let (w, spec) = probe.scenario();
            let mut soc = build_soc(&w, &spec).map_err(err)?;
            let m = run_soc_mut(&mut soc);
            if !m.ok {
                return Err(format!("calibration run of {frames}x{samples} failed"));
            }
            let ns = m.makespan.as_ns_f64();
            let fr = [
                rng.unit(0.30, 0.45),
                rng.unit(0.50, 0.65),
                rng.unit(0.70, 0.85),
            ];
            for (stage, f) in fork_fracs.iter_mut().zip(fr) {
                stage.push(f);
            }
            let forks = fr.map(|f| (ns * f) as u64);
            let mut used: Vec<Vec<u64>> = vec![Vec::new(); 3];
            let mut points = |f: usize, rng: &mut Rng| {
                let mut p = Vec::new();
                while p.len() < K {
                    let c = 25 * rng.range(4, 24);
                    if !used[f].contains(&c) {
                        used[f].push(c);
                        p.push(c);
                    }
                }
                p
            };
            let at = |f: usize, pts: Vec<u64>| SweepRequest {
                frames,
                samples,
                fork_ns: forks[f],
                points: pts,
            };
            let us = |ns: u64| ns as f64 / 1e3;
            let r1 = at(0, points(0, &mut rng));
            let r2 = at(1, points(1, &mut rng));
            let r3 = at(0, points(0, &mut rng));
            let r5 = at(2, points(2, &mut rng));
            let r6 = at(1, points(1, &mut rng));
            let r9 = at(2, points(2, &mut rng));
            let ep = [
                (3, r1.clone(), us(forks[0])),
                (2, r2.clone(), us(forks[1] - forks[0])),
                (1, r3.clone(), 0.0),
                (0, r1, 0.0),
                (2, r5.clone(), us(forks[2] - forks[1])),
                (1, r6, 0.0),
                (0, r3, 0.0),
                (0, r2, 0.0),
                (1, r9, 0.0),
                (0, r5, 0.0),
            ];
            stream.extend(ep.into_iter().map(|(class, req, prefix_us)| Req {
                class,
                req,
                prefix_us,
            }));
        }
        if let Some(n) = ops {
            stream.truncate(n);
        }
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut s = Served {
            stream,
            episodes,
            fork_fracs,
            server: None,
            workers,
        };
        s.restart()?;
        Ok(s)
    }

    /// Stop the current server, if any, and serve from a fresh store.
    fn restart(&mut self) -> Result<(), String> {
        self.stop();
        let dir = fresh_dir("served");
        std::fs::create_dir_all(&dir).map_err(err)?;
        // Commit the old store's deletion now: on a filesystem that discards
        // freed blocks at commit, the first fsync of the next pass would
        // otherwise wait for it.
        crate::util::sync_fs(&dir)?;
        let server = SweepServer::start(&dir, self.workers).map_err(err)?;
        let mut client = Client::connect(&server.addr().to_string()).map_err(err)?;
        client.ping().map_err(err)?;
        self.server = Some((server, client, dir));
        Ok(())
    }

    fn stop(&mut self) {
        if let Some((server, client, dir)) = self.server.take() {
            drop(client);
            server.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Bench for Served {
    fn mix(&self) -> Vec<String> {
        let mut n = [0usize; 4];
        for r in &self.stream {
            n[r.class] += 1;
        }
        let total = self.stream.len().max(1) as f64;
        let shares: Vec<String> = CLASSES
            .iter()
            .zip(n)
            .map(|(c, k)| format!("{c}={:.2}", k as f64 / total))
            .collect();
        let forks: Vec<String> = self
            .fork_fracs
            .iter()
            .map(|v| {
                let s = crate::util::sorted(v);
                format!("[{:.3}, {:.3}]", s[0], s[s.len() - 1])
            })
            .collect();
        vec![
            format!(
                "{} requests of {K} clock points over {} scenarios (frames 2..=4 x samples 64, 112, 160, 208, first three in order {:?}); class shares {}",
                self.stream.len(),
                self.episodes.len(),
                &self.episodes[..self.episodes.len().min(3)],
                shares.join(" ")
            ),
            format!(
                "fork fractions of the makespan: cold {}, first extend {}, second extend {}",
                forks[0], forks[1], forks[2]
            ),
        ]
    }

    fn parallelism(&self) -> String {
        format!(
            "client threads=1 server workers={} (each sweep forks on min(nproc, {K}) threads) shards=1",
            self.workers
        )
    }

    fn op_count(&self) -> usize {
        self.stream.len()
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.restart()
    }

    fn op(&mut self, i: usize, tr: &Tracer, _host: &mut Counters) -> OpOut {
        let r = &self.stream[i];
        let Some((_, client, _)) = self.server.as_mut() else {
            return OpOut::failed();
        };
        let reply = {
            let _g = tr.span("serve.request", 0);
            match client.sweep(&r.req) {
                Ok(rep) => rep,
                Err(_) => return OpOut::failed(),
            }
        };
        let mut c = Counters::default();
        c.add(
            [
                "serve.requests_replay",
                "serve.requests_restore",
                "serve.requests_extend",
                "serve.requests_cold",
            ][r.class],
            Agg::Sum,
            1.0,
        );
        c.add("serve.simulated_points", Agg::Sum, reply.simulated as f64);
        c.add(
            "serve.hit_frac",
            Agg::Mean,
            reply.from_cache as f64 / K as f64,
        );
        let fork_us = r.req.fork_ns as f64 / 1e3;
        let mut sim_us = r.prefix_us;
        for rec in &reply.records {
            c.add("bus.words", Agg::Sum, rec.bus_words as f64);
            c.add("bus.utilization", Agg::Mean, rec.bus_utilization);
            c.add("core.switches", Agg::Sum, rec.switches as f64);
            c.add("core.config_words", Agg::Sum, rec.config_words as f64);
            c.add("core.hit_rate", Agg::Mean, rec.hit_rate);
            c.add("core.reconfig_overhead", Agg::Mean, rec.reconfig_overhead);
            if reply.simulated > 0 {
                sim_us += rec.makespan_ns / 1e3 - fork_us;
            }
        }
        OpOut {
            ok: reply.records.len() == K && reply.records.iter().all(|r| r.ok),
            output: Box::new(reply.records),
            sim_us,
            points: K as u64,
            counters: c,
        }
    }

    fn probe(&mut self, _i: usize, tr: &Tracer, host: &mut Counters) {
        if let Some((_, client, _)) = self.server.as_mut() {
            let t = Instant::now();
            let _g = tr.span("serve.ping", 0);
            if client.ping().is_ok() {
                host.add("serve.ping_ms", Agg::Mean, t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }

    fn check(
        &mut self,
        outs: &[(OpOut, u64)],
        lat_ms: &[f64],
        host: Option<&mut Counters>,
    ) -> (Vec<bool>, Counters) {
        let mut extra = Counters::default();
        let dir = fresh_dir("served-oracle");
        let Ok(store) = SnapshotStore::open(&dir) else {
            return (vec![false; outs.len()], extra);
        };
        let mut overhead = Vec::new();
        let verdicts = self
            .stream
            .iter()
            .zip(outs)
            .enumerate()
            .map(|(i, (r, (_, digest)))| {
                let t = Instant::now();
                let reply = process_sweep(&store, &r.req);
                let direct_ms = t.elapsed().as_secs_f64() * 1e3;
                if let Some(client_ms) = lat_ms.get(i) {
                    overhead.push(client_ms - direct_ms);
                }
                reply.is_ok_and(|rep| digest_of(&rep.records) == *digest)
            })
            .collect();
        let by_class: Vec<String> = CLASSES
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let lat: Vec<f64> = self
                    .stream
                    .iter()
                    .zip(lat_ms)
                    .filter(|(r, _)| r.class == c)
                    .map(|(_, &l)| l)
                    .collect();
                format!("{name}={:.4}", median(&lat))
            })
            .collect();
        println!(
            "served: median client latency (ms) per request class: {}",
            by_class.join(" ")
        );
        if let Some(host) = host {
            host.add("serve.socket_overhead_ms", Agg::Mean, median(&overhead));
            if let Ok(manifest) = store.manifest() {
                let entries = manifest
                    .get("entries")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[]);
                for e in entries {
                    let num = |k: &str| e.get(k).and_then(ju64_of).unwrap_or(0) as f64;
                    extra.add("serve.store_bytes", Agg::Sum, num("chain_bytes"));
                    extra.add("serve.links", Agg::Sum, num("links"));
                    let key = e.get("key").and_then(ju64_of).unwrap_or(0);
                    if let Ok(Some(meta)) = store.meta(key) {
                        let full = meta.links.iter().filter(|l| l.full).count();
                        extra.add("serve.full_links", Agg::Sum, full as f64);
                    }
                }
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
        (verdicts, extra)
    }
}
