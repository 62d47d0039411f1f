//! Horizon-schedule equivalence on generated E12 bridge hierarchies: the
//! LBTS horizons at 1, 2 and 4 shards and an explicit small window must
//! reach the same per-LP final state hash, final time and probe, the same
//! message and in-flight counts and the same `RunMetrics` — or the same
//! typed error (a horizon too short for the churn ends in a deadlock).

use std::sync::Arc;

use drcf_bench::e12_hierarchy::sharded_e12_graph;
use drcf_kernel::prelude::{ShardConfig, SimDuration, SimTime};
use drcf_soc::prelude::{run_partitioned, SocGraph};
use proptest::prelude::*;

/// Everything about a run except the schedule-dependent round count, or
/// its typed error with every field.
fn outcome(graph: &Arc<SocGraph>, cfg: &ShardConfig) -> Result<String, String> {
    let run = run_partitioned(graph, cfg).map_err(|e| format!("{e:?}"))?;
    let r = &run.report;
    let lps: Vec<_> = r
        .lps
        .iter()
        .map(|l| (l.final_time_fs, l.state_hash, l.probe.to_string()))
        .collect();
    Ok(format!(
        "{} {} {lps:?} {:?}",
        r.messages, r.in_flight_at_end, run.metrics
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn e12_results_do_not_depend_on_the_horizon_schedule(
        fabrics in 1usize..4,
        config_words in 64u64..512,
        accesses in 1u32..8,
        probe_reads in 10u32..120,
        horizon_us in 40u64..250,
        window_ns in 200u64..5_000,
    ) {
        let graph = Arc::new(sharded_e12_graph(config_words, fabrics, accesses, probe_reads));
        let end = SimTime::ZERO + SimDuration::us(horizon_us);
        let oracle = outcome(&graph, &ShardConfig::to(end));
        for shards in [2, 4] {
            prop_assert_eq!(&oracle, &outcome(&graph, &ShardConfig::to(end).shards(shards)));
        }
        let windowed = ShardConfig::to(end).window(SimDuration::ns(window_ns));
        prop_assert_eq!(&oracle, &outcome(&graph, &windowed));
        prop_assert_eq!(&oracle, &outcome(&graph, &windowed.shards(2)));
    }
}
