//! Differential conformance sweep: randomized cells, seven engine
//! variants (cached, full-scan, retranslate, eager-ledger,
//! frontier-walk, linear-frfcfs, unresolved-calendar),
//! bit-identical reports and command streams, all oracle-clean.
//!
//! Case count honors `PROPTEST_CASES` (CI runs a reduced sweep); the
//! default is 64 cells.

use shadow_conformance::{
    build_streams, gen_case, proptest_cases, run_differential, ConfScheme, FuzzCase,
};
use shadow_dram::trace::CommandRecord;
use shadow_memsys::{MemSystem, SimReport};
use shadow_rh::RhParams;

#[test]
fn randomized_cells_agree_across_engine_variants() {
    let cases = proptest_cases(64);
    let mut scheme_seen = std::collections::BTreeSet::new();
    let mut multi_channel = 0usize;
    for i in 0..cases as u64 {
        let case = gen_case(0xC0DE_0000 + i);
        scheme_seen.insert(case.scheme.name());
        multi_channel += usize::from(case.cfg.geometry.channels > 1);
        run_differential(&case).unwrap_or_else(|e| {
            panic!(
                "cell {i} diverged (scheme {}, geometry {:?}): {e}",
                case.scheme.name(),
                case.cfg.geometry
            )
        });
    }
    // With ≥ 32 cells the sweep should exercise a healthy spread of
    // schemes; a collapsed distribution means the generator regressed.
    if cases >= 32 {
        assert!(
            scheme_seen.len() >= 5,
            "only {scheme_seen:?} covered in {cases} cells"
        );
        // Multi-channel cells pin the coordinator's canonical channel-order
        // merge; the generator must keep producing enough of them.
        assert!(
            multi_channel >= cases / 4,
            "only {multi_channel}/{cases} cells were multi-channel"
        );
    }
}

/// PRAC-era slice: the same seven-variant differential harness, but every
/// cell pinned to one of the ABO schemes (PRAC, PRACtical) or DAPPER.
/// The random draw in [`gen_case`] only lands on them ~3/11 of the time,
/// so CI's reduced sweeps could otherwise pass with the Alert Back-Off
/// recovery path (and the oracle's zero-grace ABO rules) barely
/// exercised. Cells keep their randomized geometry/timing/workload; only
/// the scheme is overridden, round-robin across the three.
#[test]
fn prac_era_cells_agree_across_engine_variants() {
    const SCHEMES: [ConfScheme; 3] = [ConfScheme::Prac, ConfScheme::Practical, ConfScheme::Dapper];
    let cases = proptest_cases(24);
    for i in 0..cases as u64 {
        let mut case = gen_case(0xAB0_0000 + i);
        case.scheme = SCHEMES[(i % 3) as usize];
        run_differential(&case).unwrap_or_else(|e| {
            panic!(
                "PRAC-era cell {i} diverged (scheme {}, geometry {:?}): {e}",
                case.scheme.name(),
                case.cfg.geometry
            )
        });
    }
}

/// Runs one case with the resolved-decision cache on or defeated and
/// returns its report plus the full committed command trace.
fn run_resolved_leg(case: &FuzzCase, unresolved: bool) -> (SimReport, Vec<CommandRecord>) {
    let mut cfg = case.cfg;
    cfg.force_unresolved_calendar = unresolved;
    let mitigation = case.scheme.build(&cfg);
    let mut sys = MemSystem::new(cfg, build_streams(case), mitigation);
    let report = sys.run();
    let trace = sys.device().trace().expect("tracing enabled");
    assert!(
        trace.is_complete(),
        "trace dropped {} records; raise trace_depth",
        trace.dropped()
    );
    let records = sys.take_trace().expect("tracing enabled");
    (report, records)
}

/// Resolved-calendar churn suite: the decision cache and CAS-burst
/// streaming against `force_unresolved_calendar`, pinned to the two
/// nastiest invalidation sources instead of the fuzzer's uniform draw —
///
/// * **remap churn**: SHADOW's intra-subarray shuffle and RRS's row swaps
///   move the remap epoch mid-run, so cached `Cas`/`Act` decisions go
///   stale via `touch_bank`/seq bumps while the row index re-keys;
/// * **ABO recovery drains**: PRAC / PRACtical alert storms arm per-scope
///   recovery RFM debt, flipping the gates a resolved entry must re-check
///   live at every consume.
///
/// Aggressive Row Hammer thresholds (h_cnt 16–48 vs the fuzzer's 64–512)
/// make both events frequent within a short cell. Reports AND command
/// traces must match record for record.
#[test]
fn resolved_calendar_matches_unresolved_under_remap_churn_and_abo_drains() {
    const SCHEMES: [ConfScheme; 4] = [
        ConfScheme::Shadow,
        ConfScheme::Rrs,
        ConfScheme::Prac,
        ConfScheme::Practical,
    ];
    let cases = proptest_cases(16);
    for i in 0..cases as u64 {
        let mut case = gen_case(0x5EED_0000 + i);
        case.scheme = SCHEMES[(i % 4) as usize];
        // Aggressive thresholds: every few dozen ACTs triggers mitigation
        // work (shuffle, swap, or alert), churning the decision cache.
        case.cfg.rh = RhParams::new(16 + (i % 3) * 16, case.cfg.rh.blast_radius);
        let (resolved_report, resolved_trace) = run_resolved_leg(&case, false);
        let (unresolved_report, unresolved_trace) = run_resolved_leg(&case, true);
        assert_eq!(
            resolved_report,
            unresolved_report,
            "cell {i}: resolved-decision calendar changed the report under {} (geometry {:?})",
            case.scheme.name(),
            case.cfg.geometry
        );
        if resolved_trace != unresolved_trace {
            let at = resolved_trace
                .iter()
                .zip(&unresolved_trace)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| resolved_trace.len().min(unresolved_trace.len()));
            panic!(
                "cell {i}: command-stream divergence under {} at record {at}: \
                 resolved has {:?}, unresolved has {:?}",
                case.scheme.name(),
                resolved_trace.get(at),
                unresolved_trace.get(at)
            );
        }
    }
}
