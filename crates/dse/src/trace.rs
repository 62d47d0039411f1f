//! Trace exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//! and line-oriented JSONL.
//!
//! Both exporters consume the structured [`SimEvent`] stream recorded by
//! the kernel's [`Recorder`] (see `drcf_kernel::observe`) and resolve
//! component ids to display names. They live in the DSE crate because the
//! workspace's hand-rolled [`Json`] writer does (the build is fully
//! offline — no serde).
//!
//! Track layout: one Perfetto thread per `(component, lane)` pair, named
//! `<component>` for lane 0 and `<component>:<lane>` for higher lanes (the
//! fabric uses lane 1 for background context loads so overlapped switch
//! spans nest independently of execution spans). Kernel-phase events (the
//! [`KERNEL_SOURCE`] sentinel) get their own `kernel` track. Counters
//! become Chrome counter series named `<component>.<counter>`.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use drcf_kernel::prelude::{
    ComponentId, LpReport, ShardRunReport, SimError, SimErrorKind, SimEvent, SimResult, Simulator,
    TraceEventKind, KERNEL_SOURCE,
};

use crate::json::Json;

/// Resolve the display name of an event source: component name, or
/// `kernel` for the scheduler's own phase events.
fn source_name(comp: ComponentId, name: &dyn Fn(ComponentId) -> Option<String>) -> String {
    if comp == KERNEL_SOURCE {
        "kernel".to_string()
    } else {
        name(comp).unwrap_or_else(|| format!("comp{comp}"))
    }
}

/// Track label for a `(component, lane)` pair.
fn track_name(comp: ComponentId, lane: u8, name: &dyn Fn(ComponentId) -> Option<String>) -> String {
    let base = source_name(comp, name);
    if lane == 0 {
        base
    } else {
        format!("{base}:{lane}")
    }
}

/// Femtoseconds to the microseconds Chrome trace `ts` expects.
fn ts_us(fs: u64) -> f64 {
    fs as f64 / 1e9
}

/// Build a Chrome trace-event JSON document from recorded events.
///
/// `name` resolves a component id to its display name (`None` falls back
/// to `comp<N>`). The output is the object form of the trace-event format:
/// `{"traceEvents": [...], "displayTimeUnit": "ns"}`, loadable by Perfetto
/// and `chrome://tracing`. Span events are emitted as matched `"B"`/`"E"`
/// pairs, instants as `"i"` with thread scope, counters as `"C"`.
pub fn chrome_trace_events(
    events: &[SimEvent],
    name: &dyn Fn(ComponentId) -> Option<String>,
) -> Json {
    // Dense tid assignment in first-seen order, with one thread_name
    // metadata record per track.
    let mut tracks: Vec<(ComponentId, u8)> = Vec::new();
    let mut tid_of = |comp: ComponentId, lane: u8, out: &mut Vec<Json>| -> usize {
        if let Some(i) = tracks.iter().position(|&t| t == (comp, lane)) {
            return i;
        }
        tracks.push((comp, lane));
        let tid = tracks.len() - 1;
        out.push(
            Json::obj()
                .with("name", Json::Str("thread_name".into()))
                .with("ph", Json::Str("M".into()))
                .with("pid", Json::Num(0.0))
                .with("tid", Json::Num(tid as f64))
                .with(
                    "args",
                    Json::obj().with("name", Json::Str(track_name(comp, lane, name))),
                ),
        );
        tid
    };

    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 8);
    for e in events {
        let tid = tid_of(e.comp, e.lane, &mut out);
        let base = Json::obj()
            .with("name", Json::Str(e.name.to_string()))
            .with("cat", Json::Str(e.cat.as_str().to_string()))
            .with("ts", Json::Num(ts_us(e.at.as_fs())))
            .with("pid", Json::Num(0.0))
            .with("tid", Json::Num(tid as f64));
        let ev = match e.kind {
            TraceEventKind::Begin => base
                .with("ph", Json::Str("B".into()))
                .with("args", Json::obj().with("value", Json::Num(e.value as f64))),
            TraceEventKind::End => base
                .with("ph", Json::Str("E".into()))
                .with("args", Json::obj().with("value", Json::Num(e.value as f64))),
            TraceEventKind::Instant => base
                .with("ph", Json::Str("i".into()))
                .with("s", Json::Str("t".into()))
                .with("args", Json::obj().with("value", Json::Num(e.value as f64))),
            TraceEventKind::Counter => {
                // Counter series are named per component so multi-component
                // counters (e.g. two CPUs' `retired`) stay separate tracks.
                let series = format!("{}.{}", source_name(e.comp, name), e.name);
                Json::obj()
                    .with("name", Json::Str(series))
                    .with("cat", Json::Str(e.cat.as_str().to_string()))
                    .with("ts", Json::Num(ts_us(e.at.as_fs())))
                    .with("pid", Json::Num(0.0))
                    .with("tid", Json::Num(tid as f64))
                    .with("ph", Json::Str("C".into()))
                    .with("args", Json::obj().with("value", Json::Num(e.value as f64)))
            }
        };
        out.push(ev);
    }
    Json::obj()
        .with("traceEvents", Json::Arr(out))
        .with("displayTimeUnit", Json::Str("ns".into()))
}

/// [`chrome_trace_events`] over a finished simulator: drains the recorder
/// contents and resolves names from the component table.
pub fn chrome_trace(sim: &Simulator) -> Json {
    let events = sim.observe_events();
    let count = sim.component_count();
    chrome_trace_events(&events, &|id| {
        (id < count).then(|| sim.component_name(id).to_string())
    })
}

/// Render recorded events as JSONL: one self-describing JSON object per
/// line, in chronological order. Suited to `grep`/`jq`-style ad-hoc
/// analysis where a full trace viewer is overkill.
pub fn jsonl_events(events: &[SimEvent], name: &dyn Fn(ComponentId) -> Option<String>) -> String {
    let mut out = String::new();
    for e in events {
        let kind = match e.kind {
            TraceEventKind::Begin => "begin",
            TraceEventKind::End => "end",
            TraceEventKind::Instant => "instant",
            TraceEventKind::Counter => "counter",
        };
        let line = Json::obj()
            .with("ts_fs", Json::Num(e.at.as_fs() as f64))
            .with("delta", Json::Num(e.delta as f64))
            .with("comp", Json::Str(source_name(e.comp, name)))
            .with("lane", Json::Num(e.lane as f64))
            .with("cat", Json::Str(e.cat.as_str().to_string()))
            .with("name", Json::Str(e.name.to_string()))
            .with("kind", Json::Str(kind.into()))
            .with("value", Json::Num(e.value as f64));
        let _ = writeln!(out, "{line}");
    }
    out
}

/// [`jsonl_events`] over a finished simulator.
pub fn jsonl(sim: &Simulator) -> String {
    let events = sim.observe_events();
    let count = sim.component_count();
    jsonl_events(&events, &|id| {
        (id < count).then(|| sim.component_name(id).to_string())
    })
}

/// Write the Chrome trace of `sim` to `path` (pretty-printed, so diffs of
/// committed sample traces stay reviewable).
pub fn write_chrome_trace(sim: &Simulator, path: &Path) -> io::Result<()> {
    fs::write(path, chrome_trace(sim).to_string_pretty())
}

/// Write the JSONL trace of `sim` to `path`.
pub fn write_jsonl(sim: &Simulator, path: &Path) -> io::Result<()> {
    fs::write(path, jsonl(sim))
}

// ---------------------------------------------------------------------------
// Sharded trace merge: one multi-process document from N harvested LPs
// ---------------------------------------------------------------------------

/// Name resolver backed by an [`LpReport`]'s harvested component table.
fn lp_resolver(lp: &LpReport) -> impl Fn(ComponentId) -> Option<String> + '_ {
    move |id| lp.component_names.get(id).cloned()
}

/// Refuse to merge a run whose recorders were never enabled — the trace
/// would silently be empty, which is exactly the failure mode this layer
/// exists to remove.
fn check_traced(report: &ShardRunReport) -> SimResult<()> {
    if report.lps.iter().all(|l| l.trace_capacity == 0) {
        return Err(SimError::new(
            SimErrorKind::Validation,
            "sharded tracing is off: no LP recorder was enabled — set \
             ShardConfig::trace(capacity) (or the spec's trace_capacity) before the run",
        ));
    }
    Ok(())
}

/// Merge a sharded run into one Chrome trace-event document: one Perfetto
/// *process* per LP (`pid = lp + 1`, named after the LP), each with its
/// own `(component, lane)` thread tracks, plus synthesized window-protocol
/// `round` spans on every LP's `kernel` track (`B` at the window's start,
/// `E` at its horizon, with the bounding min-term, and envelope counts in
/// `args`).
///
/// The document contains only simulated-time data — harvested
/// [`SimEvent`]s and the profile's deterministic window records — so the
/// merge of the same topology is byte-identical at any shard count.
/// Errors if no LP had its recorder enabled.
pub fn chrome_trace_sharded(report: &ShardRunReport) -> SimResult<Json> {
    check_traced(report)?;
    let mut out: Vec<Json> = Vec::new();
    for (lp, rep) in report.lps.iter().enumerate() {
        let pid = (lp + 1) as f64;
        out.push(
            Json::obj()
                .with("name", Json::Str("process_name".into()))
                .with("ph", Json::Str("M".into()))
                .with("pid", Json::Num(pid))
                .with("tid", Json::Num(0.0))
                .with(
                    "args",
                    Json::obj().with("name", Json::Str(rep.name.clone())),
                ),
        );
        let resolve = lp_resolver(rep);
        // Register the kernel track first so the synthesized round spans
        // and the kernel's own counters share tid 0 on every process.
        let mut tracks: Vec<(ComponentId, u8)> = vec![(KERNEL_SOURCE, 0)];
        out.push(
            Json::obj()
                .with("name", Json::Str("thread_name".into()))
                .with("ph", Json::Str("M".into()))
                .with("pid", Json::Num(pid))
                .with("tid", Json::Num(0.0))
                .with("args", Json::obj().with("name", Json::Str("kernel".into()))),
        );
        for e in &rep.trace_events {
            let tid = match tracks.iter().position(|&t| t == (e.comp, e.lane)) {
                Some(i) => i,
                None => {
                    tracks.push((e.comp, e.lane));
                    let tid = tracks.len() - 1;
                    out.push(
                        Json::obj()
                            .with("name", Json::Str("thread_name".into()))
                            .with("ph", Json::Str("M".into()))
                            .with("pid", Json::Num(pid))
                            .with("tid", Json::Num(tid as f64))
                            .with(
                                "args",
                                Json::obj()
                                    .with("name", Json::Str(track_name(e.comp, e.lane, &resolve))),
                            ),
                    );
                    tid
                }
            };
            let base = Json::obj()
                .with("name", Json::Str(e.name.to_string()))
                .with("cat", Json::Str(e.cat.as_str().to_string()))
                .with("ts", Json::Num(ts_us(e.at.as_fs())))
                .with("pid", Json::Num(pid))
                .with("tid", Json::Num(tid as f64));
            let ev = match e.kind {
                TraceEventKind::Begin => base
                    .with("ph", Json::Str("B".into()))
                    .with("args", Json::obj().with("value", Json::Num(e.value as f64))),
                TraceEventKind::End => base
                    .with("ph", Json::Str("E".into()))
                    .with("args", Json::obj().with("value", Json::Num(e.value as f64))),
                TraceEventKind::Instant => base
                    .with("ph", Json::Str("i".into()))
                    .with("s", Json::Str("t".into()))
                    .with("args", Json::obj().with("value", Json::Num(e.value as f64))),
                TraceEventKind::Counter => {
                    let series = format!("{}.{}", source_name(e.comp, &resolve), e.name);
                    Json::obj()
                        .with("name", Json::Str(series))
                        .with("cat", Json::Str(e.cat.as_str().to_string()))
                        .with("ts", Json::Num(ts_us(e.at.as_fs())))
                        .with("pid", Json::Num(pid))
                        .with("tid", Json::Num(tid as f64))
                        .with("ph", Json::Str("C".into()))
                        .with("args", Json::obj().with("value", Json::Num(e.value as f64)))
                }
            };
            out.push(ev);
        }
        // Synthesized window-protocol spans on the kernel track (tid 0).
        // The kernel itself emits only counters and instants there, so the
        // added B/E pairs cannot unbalance the track. Only deterministic
        // simulated-time fields go into args — never wall-clock ones.
        if let Some(prof) = report.profile.lps.get(lp) {
            for w in &prof.windows {
                let bound = match w.bound {
                    drcf_kernel::prelude::HorizonBound::End => "end".to_string(),
                    drcf_kernel::prelude::HorizonBound::Window => "window".to_string(),
                    drcf_kernel::prelude::HorizonBound::Link(l) => report
                        .profile
                        .links
                        .get(l)
                        .map(|li| format!("link:{}", li.name))
                        .unwrap_or_else(|| format!("link:{l}")),
                };
                out.push(
                    Json::obj()
                        .with("name", Json::Str("round".into()))
                        .with("cat", Json::Str("kernel".into()))
                        .with("ts", Json::Num(ts_us(w.start_fs)))
                        .with("pid", Json::Num(pid))
                        .with("tid", Json::Num(0.0))
                        .with("ph", Json::Str("B".into()))
                        .with(
                            "args",
                            Json::obj()
                                .with("round", Json::Num(w.round as f64))
                                .with("bound", Json::Str(bound))
                                .with("sent", Json::Num(w.sent as f64))
                                .with("received", Json::Num(w.received as f64)),
                        ),
                );
                out.push(
                    Json::obj()
                        .with("name", Json::Str("round".into()))
                        .with("cat", Json::Str("kernel".into()))
                        .with("ts", Json::Num(ts_us(w.horizon_fs)))
                        .with("pid", Json::Num(pid))
                        .with("tid", Json::Num(0.0))
                        .with("ph", Json::Str("E".into()))
                        .with("args", Json::obj()),
                );
            }
        }
    }
    Ok(Json::obj()
        .with("traceEvents", Json::Arr(out))
        .with("displayTimeUnit", Json::Str("ns".into())))
}

/// Merge a sharded run into JSONL: every harvested event as one line
/// (tagged with its LP), then one `kind:"round"` line per LP window.
/// Deterministic under the same rules as [`chrome_trace_sharded`].
pub fn jsonl_sharded(report: &ShardRunReport) -> SimResult<String> {
    check_traced(report)?;
    let mut out = String::new();
    for (lp, rep) in report.lps.iter().enumerate() {
        let resolve = lp_resolver(rep);
        for e in &rep.trace_events {
            let kind = match e.kind {
                TraceEventKind::Begin => "begin",
                TraceEventKind::End => "end",
                TraceEventKind::Instant => "instant",
                TraceEventKind::Counter => "counter",
            };
            let line = Json::obj()
                .with("lp", Json::Num(lp as f64))
                .with("lp_name", Json::Str(rep.name.clone()))
                .with("ts_fs", Json::Num(e.at.as_fs() as f64))
                .with("delta", Json::Num(e.delta as f64))
                .with("comp", Json::Str(source_name(e.comp, &resolve)))
                .with("lane", Json::Num(e.lane as f64))
                .with("cat", Json::Str(e.cat.as_str().to_string()))
                .with("name", Json::Str(e.name.to_string()))
                .with("kind", Json::Str(kind.into()))
                .with("value", Json::Num(e.value as f64));
            let _ = writeln!(out, "{line}");
        }
    }
    for prof in &report.profile.lps {
        for w in &prof.windows {
            let line = Json::obj()
                .with("lp", Json::Num(prof.lp as f64))
                .with("lp_name", Json::Str(prof.name.clone()))
                .with("kind", Json::Str("round".into()))
                .with("round", Json::Num(w.round as f64))
                .with("start_fs", Json::Num(w.start_fs as f64))
                .with("horizon_fs", Json::Num(w.horizon_fs as f64))
                .with("bound", Json::Str(w.bound.label().into()))
                .with("sent", Json::Num(w.sent as f64))
                .with("received", Json::Num(w.received as f64));
            let _ = writeln!(out, "{line}");
        }
    }
    Ok(out)
}

/// Write the merged Chrome trace of a sharded run to `path`. Errors with
/// [`SimErrorKind::Validation`] if tracing was off, and surfaces write
/// failures as [`SimErrorKind::Internal`].
pub fn write_chrome_trace_sharded(report: &ShardRunReport, path: &Path) -> SimResult<()> {
    let doc = chrome_trace_sharded(report)?;
    fs::write(path, doc.to_string_pretty()).map_err(|e| {
        SimError::new(
            SimErrorKind::Internal,
            format!("writing merged trace {}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcf_kernel::prelude::{SimTime, TraceCategory};

    fn ev(
        fs: u64,
        comp: ComponentId,
        lane: u8,
        name: &'static str,
        kind: TraceEventKind,
        value: u64,
    ) -> SimEvent {
        SimEvent {
            at: SimTime(fs),
            delta: 0,
            comp,
            lane,
            cat: TraceCategory::User,
            name,
            kind,
            value,
        }
    }

    #[test]
    fn chrome_trace_emits_tracks_and_balanced_phases() {
        let events = vec![
            ev(0, 0, 0, "work", TraceEventKind::Begin, 1),
            ev(1_000_000, 1, 1, "load", TraceEventKind::Begin, 2),
            ev(2_000_000, 1, 1, "load", TraceEventKind::End, 2),
            ev(3_000_000, 0, 0, "work", TraceEventKind::End, 1),
            ev(3_000_000, 0, 0, "tick", TraceEventKind::Instant, 9),
            ev(
                4_000_000,
                KERNEL_SOURCE,
                0,
                "deltas",
                TraceEventKind::Counter,
                5,
            ),
        ];
        let name = |id: ComponentId| match id {
            0 => Some("cpu".to_string()),
            1 => Some("drcf".to_string()),
            _ => None,
        };
        let doc = chrome_trace_events(&events, &name);
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 3 tracks discovered -> 3 metadata records + 6 events.
        assert_eq!(arr.len(), 9);
        let metas: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(metas, vec!["cpu", "drcf:1", "kernel"]);
        let phases = |ph: &str| {
            arr.iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phases("B"), 2);
        assert_eq!(phases("E"), 2);
        assert_eq!(phases("i"), 1);
        assert_eq!(phases("C"), 1);
        // ts is microseconds: 1_000_000 fs = 1e-3 us.
        let b_drcf = arr
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("B")
                    && e.get("tid").and_then(Json::as_f64) == Some(1.0)
            })
            .unwrap();
        assert!((b_drcf.get("ts").and_then(Json::as_f64).unwrap() - 1e-3).abs() < 1e-12);
        // Counter series is component-qualified.
        let c = arr
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .unwrap();
        assert_eq!(c.get("name").and_then(Json::as_str), Some("kernel.deltas"));
        // The whole document round-trips through the parser.
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap()
                .len(),
            9
        );
    }

    #[test]
    fn jsonl_is_one_parsable_object_per_line() {
        let events = vec![
            ev(500, 2, 0, "grant", TraceEventKind::Instant, 7),
            ev(600, 2, 0, "queue_depth", TraceEventKind::Counter, 3),
        ];
        let text = jsonl_events(&events, &|_| Some("bus".to_string()));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("comp").and_then(Json::as_str), Some("bus"));
        }
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("instant"));
        assert_eq!(first.get("ts_fs").and_then(Json::as_u64), Some(500));
    }

    #[test]
    fn sharded_merge_refuses_untraced_runs_and_builds_process_tracks() {
        use drcf_kernel::prelude::{KernelMetrics, LpWindow, ShardProfile};

        let lp_report = |name: &str, traced: bool| LpReport {
            name: name.to_string(),
            final_time_fs: 2_000_000,
            metrics: KernelMetrics::default(),
            slice_hashes: Vec::new(),
            state_hash: 0,
            obligations: 0,
            probe: Json::Null,
            trace_events: if traced {
                vec![
                    ev(0, 0, 0, "work", TraceEventKind::Begin, 1),
                    ev(1_000_000, 0, 0, "work", TraceEventKind::End, 1),
                ]
            } else {
                Vec::new()
            },
            component_names: vec!["node".to_string()],
            trace_capacity: if traced { 16 } else { 0 },
            trace_emitted: if traced { 2 } else { 0 },
            trace_dropped: 0,
        };
        let mut report = ShardRunReport {
            lps: vec![lp_report("lp0", false), lp_report("lp1", false)],
            rounds: 1,
            messages: 0,
            in_flight_at_end: 0,
            shards: 1,
            wall_seconds: 0.0,
            profile: ShardProfile::default(),
        };
        let err = chrome_trace_sharded(&report).expect_err("tracing off must error");
        assert!(err.message.contains("tracing is off"), "{err:?}");
        assert!(jsonl_sharded(&report).is_err());

        report.lps = vec![lp_report("lp0", true), lp_report("lp1", true)];
        report.profile.lps = (0..2)
            .map(|lp| drcf_kernel::prelude::LpProfile {
                lp,
                name: format!("lp{lp}"),
                weight: 1,
                windows: vec![LpWindow {
                    round: 0,
                    start_fs: 0,
                    horizon_fs: 2_000_000,
                    bound: drcf_kernel::prelude::HorizonBound::End,
                    events: 0,
                    sent: 0,
                    received: 0,
                    last_inject: None,
                    busy_ns: 5,
                    blocked_ns: 7,
                }],
                busy_ns: 5,
                blocked_ns: 7,
                sent: 0,
                received: 0,
            })
            .collect();
        let doc = chrome_trace_sharded(&report).expect("merge");
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // One process per LP (pids 1 and 2), with a kernel track each.
        let process_names: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(process_names, vec!["lp0", "lp1"]);
        // Per (pid, tid): balanced B/E counts, including the round spans.
        for pid in [1.0, 2.0] {
            let count = |ph: &str| {
                arr.iter()
                    .filter(|e| {
                        e.get("pid").and_then(Json::as_f64) == Some(pid)
                            && e.get("ph").and_then(Json::as_str) == Some(ph)
                    })
                    .count()
            };
            assert_eq!(count("B"), count("E"), "pid {pid} spans balanced");
            assert_eq!(count("B"), 2, "work span + round span");
        }
        // Round spans carry only simulated-time args.
        let round_b = arr
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("round")
                    && e.get("ph").and_then(Json::as_str) == Some("B")
            })
            .unwrap();
        let args = round_b.get("args").unwrap();
        assert_eq!(args.get("bound").and_then(Json::as_str), Some("end"));
        assert!(args.get("busy_ns").is_none(), "no wall-clock data");

        let lines = jsonl_sharded(&report).expect("jsonl");
        let round_lines = lines.lines().filter(|l| l.contains("\"round\"")).count();
        assert_eq!(round_lines, 2);
    }

    #[test]
    fn empty_trace_still_renders_a_valid_document() {
        let doc = chrome_trace_events(&[], &|_| None);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        assert!(jsonl_events(&[], &|_| None).is_empty());
    }
}
