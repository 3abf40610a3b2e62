//! Golden outputs of the WordCount shuffle, pinned bit for bit.
//!
//! A small fixed corpus runs through `Runner::run` in both DAIET-packet
//! modes, lossless and under chaos with NACK recovery, plus once with
//! 2-redundant senders. Every simulated time, drop count and per-reducer
//! counter is pinned, so any change to what goes on the wire, or when,
//! fails here. The values were recorded with senders that built every
//! frame of a job before it started; senders that build each frame as
//! they send it must reproduce them exactly.

use daiet_repro::mapreduce::runner::{RunOutcome, Runner, ShuffleMode};
use daiet_repro::mapreduce::wordcount::{Corpus, CorpusSpec};
use daiet_repro::netsim::FaultProfile;

fn runner() -> Runner {
    let corpus = Corpus::generate(&CorpusSpec {
        n_mappers: 6,
        n_reducers: 3,
        distinct_words: 300,
        mean_multiplicity: 3.5,
        sd_multiplicity: 1.0,
        min_len: 3,
        max_len: 14,
        register_cells: 512,
        seed: 2024,
    });
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;
    runner
}

/// `(finished_at, data_done_at, frames_dropped)` then one
/// `(app_bytes, nic_frames_in, nic_frames_observed, records)` per reducer.
type Golden = ((u64, u64, u64), Vec<(u64, u64, u64, usize)>);

fn golden(out: &RunOutcome) -> Golden {
    assert!(out.all_correct(), "{:?} produced a wrong answer", out.mode);
    (
        (out.finished_at.0, out.data_done_at.0, out.frames_dropped),
        out.reducers
            .iter()
            .map(|r| (r.app_bytes, r.nic_frames_in, r.nic_frames_observed, r.records))
            .collect(),
    )
}

fn chaos() -> FaultProfile {
    FaultProfile::chaos(0.05, 0.05, 0.05, 20_000)
}

#[test]
fn lossless_modes_match_golden_outputs() {
    let runner = runner();
    let daiet = golden(&runner.run(ShuffleMode::DaietAgg));
    let udp = golden(&runner.run(ShuffleMode::UdpNoAgg));
    assert_eq!(
        daiet,
        ((48428, 48428, 0), vec![(2430, 13, 13, 115), (1970, 11, 11, 93), (1950, 11, 11, 92)])
    );
    assert_eq!(
        udp,
        ((46126, 46126, 0), vec![(8270, 47, 47, 390), (6620, 40, 40, 311), (6930, 41, 41, 326)])
    );
}

#[test]
fn chaos_with_recovery_matches_golden_outputs() {
    let runner = runner().with_recovery(chaos());
    let daiet = golden(&runner.run(ShuffleMode::DaietAgg));
    let udp = golden(&runner.run(ShuffleMode::UdpNoAgg));
    assert_eq!(
        daiet,
        ((250000, 105412, 7), vec![(2430, 13, 15, 115), (1970, 11, 12, 93), (1950, 11, 12, 92)])
    );
    assert_eq!(
        udp,
        (
            (86395656, 64084, 417),
            vec![(8270, 1574, 1574, 390), (6620, 1372, 1372, 311), (6930, 1356, 1356, 326)]
        )
    );
}

#[test]
fn redundant_senders_match_golden_outputs() {
    let mut runner = runner().with_recovery(FaultProfile::loss(0.02));
    runner.redundancy = 2;
    let daiet = golden(&runner.run(ShuffleMode::DaietAgg));
    let udp = golden(&runner.run(ShuffleMode::UdpNoAgg));
    assert_eq!(
        daiet,
        ((100000, 90428, 5), vec![(2430, 13, 14, 115), (1970, 11, 12, 93), (1950, 11, 12, 92)])
    );
    assert_eq!(
        udp,
        (
            (86362126, 62392, 183),
            vec![(8270, 1499, 1499, 390), (6620, 1270, 1270, 311), (6930, 1324, 1324, 326)]
        )
    );
}
