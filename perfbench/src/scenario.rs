//! Seeded BCA SoC scenarios shared by the `soc_runs` and `warm_sweep`
//! workloads.

use drcf_bus::prelude::{ArbiterKind, BusConfig, MemoryConfig};
use drcf_core::prelude::{morphosys, varicore, SchedulerConfig, Technology};
use drcf_dse::prelude::size_fabric;
use drcf_soc::prelude::{
    multi_standard, video_pipeline, wireless_receiver, Mapping, SocConfigPath, SocCopyMode,
    SocSpec, Workload,
};

use crate::util::Rng;

pub const FAMILIES: [&str; 3] = ["wireless_receiver", "multi_standard", "video_pipeline"];
pub const MAPPINGS: [&str; 3] = ["AllFixed", "DRCF/SystemBus", "DRCF/DirectPort"];
pub const COPIES: [&str; 2] = ["CpuDirect", "Dma"];
pub const ARBITERS: [&str; 2] = ["Priority", "RoundRobin"];

/// One generated design point: the workload, the SoC it runs on, and a
/// label naming every generated choice.
#[derive(Clone)]
pub struct Scenario {
    pub label: String,
    pub family: usize,
    pub frames: usize,
    pub samples: usize,
    pub workload: Workload,
    pub spec: SocSpec,
}

/// One stratum: a level index per factor a scenario varies over.
#[derive(Clone, Copy)]
pub struct Stratum {
    pub family: usize,
    pub mapping: usize,
    pub copy: usize,
    pub arbiter: usize,
    /// Frames are `2 + frames` (multi_standard runs one more).
    pub frames: usize,
    /// Samples (video: block words) are `32 * (1 + samples)`.
    pub samples: usize,
    /// Fabric technology: 0 = MorphoSys, 1 = VariCore.
    pub tech: usize,
}

/// Every combination of the given level counts, in odometer order.
pub fn factorial(dims: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for &d in dims {
        out = out
            .into_iter()
            .flat_map(|p| {
                (0..d).map(move |l| {
                    let mut q = p.clone();
                    q.push(l);
                    q
                })
            })
            .collect();
    }
    out
}

/// Build the scenario of one stratum; the seed draws multi_standard's
/// switching period.
pub fn scenario(rng: &mut Rng, st: Stratum) -> Scenario {
    let Stratum {
        family,
        mapping,
        copy,
        arbiter,
        ..
    } = st;
    let frames = 2 + st.frames;
    let samples = 32 * (1 + st.samples);
    let (workload, frames) = match family {
        0 => (wireless_receiver(frames, samples), frames),
        1 => {
            let frames = frames + 1;
            let switch_every = rng.range(1, 2) as usize;
            (multi_standard(frames, samples, switch_every), frames)
        }
        _ => (video_pipeline(frames, samples), frames),
    };
    let names: Vec<String> = workload.accels.iter().map(|a| a.name.clone()).collect();
    let (technology, tech_name): (Technology, &str) = if st.tech == 0 {
        (morphosys(), "morphosys")
    } else {
        (varicore(), "varicore")
    };
    let config_path = if mapping == 2 {
        SocConfigPath::DirectPort
    } else {
        SocConfigPath::SystemBus
    };
    let spec = SocSpec {
        // Room for the largest fabric's configuration images (multi-standard
        // folds four kernels) next to the staging area.
        memory: MemoryConfig {
            base: 0,
            size_words: 0x1_0000,
            ..MemoryConfig::default()
        },
        bus: BusConfig {
            arbiter: if arbiter == 0 {
                ArbiterKind::Priority
            } else {
                ArbiterKind::RoundRobin
            },
            ..BusConfig::default()
        },
        copy_mode: if copy == 0 {
            SocCopyMode::CpuDirect
        } else {
            SocCopyMode::Dma
        },
        mapping: if mapping == 0 {
            Mapping::AllFixed
        } else {
            Mapping::Drcf {
                geometry: size_fabric(&workload, &names, 1.2, 1),
                candidates: names,
                technology,
                config_path,
                scheduler: SchedulerConfig::default(),
                overlap_load_exec: false,
            }
        },
        ..SocSpec::default()
    };
    let tech = if mapping == 0 { "-" } else { tech_name };
    Scenario {
        label: format!(
            "{}[{frames}x{samples}] {} {} {} {tech}",
            FAMILIES[family], MAPPINGS[mapping], COPIES[copy], ARBITERS[arbiter]
        ),
        family,
        frames,
        samples,
        workload,
        spec,
    }
}

/// One scenario per combination of family, mapping, copy mode, arbiter,
/// 4 frame counts and 4 sample counts, in seeded order. The seed picks
/// which half of each fabric mapping's sizes runs on which technology.
/// Covering every combination keeps the cost of a pass nearly equal
/// across seeds.
pub fn factorial_scenarios(rng: &mut Rng) -> Vec<Scenario> {
    let flips: Vec<usize> = (0..FAMILIES.len() * MAPPINGS.len())
        .map(|_| rng.range(0, 1) as usize)
        .collect();
    let mut out: Vec<Scenario> = factorial(&[3, 3, 2, 2, 4, 4])
        .into_iter()
        .map(|l| {
            let tech = (l[4] + l[5] + flips[l[0] * 3 + l[1]]) % 2;
            let st = Stratum {
                family: l[0],
                mapping: l[1],
                copy: l[2],
                arbiter: l[3],
                frames: l[4],
                samples: l[5],
                tech,
            };
            scenario(rng, st)
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Size distribution of a scenario list, for the printed input mix.
pub fn size_mix(scenarios: &[Scenario]) -> String {
    let mut by_family = [0usize; 3];
    let mut frames = std::collections::BTreeMap::new();
    let mut samples = std::collections::BTreeMap::new();
    for s in scenarios {
        by_family[s.family] += 1;
        *frames.entry(s.frames).or_insert(0usize) += 1;
        *samples.entry(s.samples).or_insert(0usize) += 1;
    }
    format!(
        "families {}; frames {:?}; samples {:?}",
        FAMILIES
            .iter()
            .zip(by_family)
            .map(|(f, n)| format!("{f}={n}"))
            .collect::<Vec<_>>()
            .join(" "),
        frames,
        samples
    )
}
