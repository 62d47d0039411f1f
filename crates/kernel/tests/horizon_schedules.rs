//! Property tests for the horizon schedule of the sharded executor: the
//! LBTS horizons, an explicit small window on top of them, and 1, 2 or 4
//! shards must all reach the same simulated outcome on generated rings
//! and chains — same per-LP final state hash, final time and probe, same
//! message and in-flight counts, or the same typed error. Only the round
//! count may differ between schedules.

use drcf_kernel::json::ju64;
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::u64_field;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Params {
    /// Ring (last LP links back to the first) or chain.
    ring: bool,
    /// Per-LP tick period, ns; the LP count is its length.
    periods: Vec<u64>,
    /// Per-link latency, ns (link i runs from LP i to LP i+1).
    latencies: Vec<u64>,
    emit_every: u64,
    /// Nodes also emit at time zero and relay every packet they receive
    /// for a few hops — sends at the very instants envelopes are posted.
    relay: bool,
    /// LP 0 raises a typed error at this tick.
    raise_at_tick: Option<u64>,
    /// The last LP holds an obligation until it has received this many
    /// packets (a deadlock at the end when it never does).
    await_packets: u64,
    horizon_ns: u64,
}

/// Ticks on a timer, emits on every outgoing link each `emit_every`
/// ticks, and folds every received packet into an order-sensitive
/// checksum.
struct Node {
    id: u64,
    egress: Vec<ComponentId>,
    period: SimDuration,
    emit_every: u64,
    relay: bool,
    raise_at_tick: Option<u64>,
    await_packets: u64,
    ticks: u64,
    received: u64,
    checksum: u64,
}

impl Node {
    fn emit(&self, api: &mut Api<'_>, tag: u64, words: &[u64]) {
        for &e in &self.egress {
            let msg = LinkMsg {
                tag,
                words: words.to_vec(),
            };
            api.send(e, msg, Delay::Delta);
        }
    }

    fn mix(&mut self, v: u64) {
        self.checksum = self
            .checksum
            .rotate_left(11)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(v);
    }
}

impl Component for Node {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => {
                if self.await_packets > 0 {
                    api.obligation_begin();
                }
                if self.relay {
                    self.emit(api, 0, &[self.id]);
                }
                api.timer_in(self.period, 0);
            }
            MsgKind::Timer(_) => {
                self.ticks += 1;
                self.mix(self.ticks);
                if self.raise_at_tick == Some(self.ticks) {
                    api.raise(SimErrorKind::Report, "node fault");
                }
                if self.ticks.is_multiple_of(self.emit_every) {
                    self.emit(api, self.ticks, &[self.id, self.checksum]);
                }
                api.timer_in(self.period, 0);
            }
            _ => {
                if let Ok(p) = msg.user::<LinkPacket>() {
                    self.received += 1;
                    if self.received == self.await_packets {
                        api.obligation_end();
                    }
                    self.mix(p.seq);
                    for w in &p.msg.words {
                        self.mix(*w);
                    }
                    if self.relay && p.msg.words.len() < 5 {
                        let mut words = p.msg.words.clone();
                        words.push(self.id);
                        self.emit(api, p.msg.tag, &words);
                    }
                }
            }
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("ticks", ju64(self.ticks))
            .with("received", ju64(self.received))
            .with("checksum", ju64(self.checksum)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.ticks = u64_field(state, "ticks")?;
        self.received = u64_field(state, "received")?;
        self.checksum = u64_field(state, "checksum")?;
        Ok(())
    }
}

fn build(p: &Params) -> ShardTopology {
    let n = p.periods.len();
    let mut topo = ShardTopology::new();
    for (i, &period) in p.periods.iter().enumerate() {
        let (emit_every, relay) = (p.emit_every, p.relay);
        let raise_at_tick = p.raise_at_tick.filter(|_| i == 0);
        let await_packets = if i + 1 == n { p.await_packets } else { 0 };
        topo.add_lp(&format!("lp{i}"), move |sim, io| {
            let egress: SimResult<Vec<ComponentId>> =
                io.outgoing().iter().map(|&l| io.egress(l)).collect();
            let id = sim.add(
                "node",
                Node {
                    id: i as u64,
                    egress: egress?,
                    period: SimDuration::ns(period),
                    emit_every,
                    relay,
                    raise_at_tick,
                    await_packets,
                    ticks: 0,
                    received: 0,
                    checksum: 0,
                },
            );
            for l in io.incoming() {
                io.set_ingress(l, id)?;
            }
            Ok(())
        });
        topo.set_probe(i, |sim| {
            let n = sim.get::<Node>(sim.component_count() - 1);
            Ok(Json::obj()
                .with("received", ju64(n.received))
                .with("checksum", ju64(n.checksum)))
        });
    }
    let links = if p.ring { n } else { n - 1 };
    for i in 0..links {
        let lat = p.latencies[i % p.latencies.len()];
        topo.add_link(&format!("l{i}"), i, (i + 1) % n, SimDuration::ns(lat));
    }
    topo
}

type Outcome = (u64, u64, Vec<(u64, u64, String)>);

fn outcome(r: &ShardRunReport) -> Outcome {
    let lps = r
        .lps
        .iter()
        .map(|l| (l.final_time_fs, l.state_hash, l.probe.to_string()))
        .collect();
    (r.messages, r.in_flight_at_end, lps)
}

/// The outcome, or the typed error rendered with every field.
fn run(p: &Params, cfg: ShardConfig) -> Result<Outcome, String> {
    run_sharded(build(p), &cfg)
        .map(|r| outcome(&r))
        .map_err(|e| format!("{e:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn horizon_schedule_never_changes_results(
        ring in any::<bool>(),
        periods in proptest::collection::vec(40u64..400, 2..5),
        latencies in proptest::collection::vec(50u64..2_000, 1..5),
        emit_every in 1u64..4,
        window_ns in 5u64..50,
        relay in any::<bool>(),
        raise_at in 0u64..150,
        await_packets in 0u64..12,
    ) {
        let p = Params {
            ring,
            periods,
            latencies,
            emit_every,
            relay,
            raise_at_tick: (1..60).contains(&raise_at).then_some(raise_at),
            await_packets,
            horizon_ns: 8_000,
        };
        let end = SimTime(SimDuration::ns(p.horizon_ns).0);
        let oracle = run(&p, ShardConfig::to(end));
        for shards in [2usize, 4] {
            prop_assert_eq!(&oracle, &run(&p, ShardConfig::to(end).shards(shards)));
        }
        let windowed = ShardConfig::to(end).window(SimDuration::ns(window_ns));
        prop_assert_eq!(&oracle, &run(&p, windowed.clone()), "window {} ns: {:?}", window_ns, p);
        prop_assert_eq!(&oracle, &run(&p, windowed.shards(2)));
    }
}
