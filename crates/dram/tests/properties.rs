//! Randomized property tests: the device never violates its own protocol
//! under arbitrary (legal) command streams, and auxiliary structures keep
//! their invariants under arbitrary use.
//!
//! Inputs come from the workspace's deterministic `Xoshiro256` generator
//! (fixed seeds), so every failure is reproducible without an external
//! property-testing framework.

use shadow_dram::command::DramCommand;
use shadow_dram::device::DramDevice;
use shadow_dram::geometry::{BankId, DramGeometry};
use shadow_dram::lane::ChannelLane;
use shadow_dram::rank::RankState;
use shadow_dram::rfm::RaaCounters;
use shadow_dram::sppr::SpprResources;
use shadow_dram::timing::TimingParams;
use shadow_sim::rng::Xoshiro256;

/// Drives a device with a random-but-legal command stream: at each step a
/// random bank gets whichever command its state allows, at the earliest
/// legal cycle. In debug builds the device's internal assertions audit
/// every commit.
fn drive(seed_ops: &[(u8, u8)]) -> DramDevice {
    let geo = DramGeometry::tiny();
    let mut dev = DramDevice::new(geo, TimingParams::tiny());
    let mut now = 0u64;
    for &(bank_sel, op) in seed_ops {
        let bank = BankId(bank_sel as u32 % geo.total_banks());
        // Refresh has priority if due (keeps the stream legal forever).
        for rank in 0..geo.total_ranks() {
            if dev.refresh_due(rank, now) {
                // Close all open banks of the rank first.
                let bpr = geo.banks_per_rank();
                for b in 0..bpr {
                    let id = BankId(rank * bpr + b);
                    if dev.open_row(id).is_some() {
                        let t = dev.earliest_pre(id, now);
                        dev.issue(DramCommand::Pre { bank: id }, t);
                        now = now.max(t);
                    }
                }
                let t = dev.earliest_ref(rank, now);
                dev.issue(DramCommand::Ref { rank }, t);
                now = now.max(t);
            }
        }
        match (dev.open_row(bank), op % 4) {
            (None, _) => {
                let row = (op as u32 * 7) % geo.rows_per_bank();
                let t = dev.earliest_act(bank, now);
                dev.issue(DramCommand::Act { bank, row }, t);
                now = now.max(t);
            }
            (Some(_), 0) => {
                let t = dev.earliest_pre(bank, now);
                dev.issue(DramCommand::Pre { bank }, t);
                now = now.max(t);
            }
            (Some(_), 1) => {
                let t = dev.earliest_wr(bank, now);
                dev.issue(DramCommand::Wr { bank }, t);
                now = now.max(t);
            }
            (Some(_), _) => {
                let t = dev.earliest_rd(bank, now);
                dev.issue(DramCommand::Rd { bank }, t);
                now = now.max(t);
            }
        }
    }
    dev
}

/// Any legal command stream executes without protocol violations, and the
/// command accounting stays consistent.
#[test]
fn random_legal_streams_never_violate_protocol() {
    let mut gen = Xoshiro256::seed_from_u64(0xD4A8_0001);
    for _ in 0..40 {
        let len = 1 + gen.gen_index(299);
        let ops: Vec<(u8, u8)> = (0..len)
            .map(|_| (gen.next_u32() as u8, gen.next_u32() as u8))
            .collect();
        let dev = drive(&ops);
        let acts = dev.stats().get("ACT");
        let pres = dev.stats().get("PRE");
        assert!(acts >= pres, "more PREs ({pres}) than ACTs ({acts})");
        // Each op issues exactly one command beyond refresh management.
        let total: u64 = ["ACT", "PRE", "RD", "WR"]
            .iter()
            .map(|c| dev.stats().get(c))
            .sum();
        assert!(total >= ops.len() as u64);
    }
}

/// The lane's per-rank open-bank count equals a recount of open rows after
/// every command of a random legal stream: ACT, PRE (to open and to already
/// precharged banks), RD/WR, bank RFM, and the rank-wide REF and RFMAB
/// (issued once the stream has closed the rank's rows). The lane models
/// the second channel of a two-channel, two-rank geometry, so the global
/// bank and rank ids it takes are rebased.
#[test]
fn open_bank_count_matches_recount_under_random_streams() {
    let geo = DramGeometry {
        channels: 2,
        ranks_per_channel: 2,
        bank_groups: 2,
        banks_per_group: 2,
        ..DramGeometry::tiny()
    };
    let tp = TimingParams::tiny();
    let bpr = geo.banks_per_rank();
    let channel = 1;
    let rank_base = channel * geo.ranks_per_channel;
    let bank_base = rank_base * bpr;
    let recount = |lane: &ChannelLane, rank: u32| {
        (0..bpr)
            .filter(|b| lane.open_row(BankId(rank * bpr + b)).is_some())
            .count() as u32
    };
    let mut gen = Xoshiro256::seed_from_u64(0xD4A8_0006);
    for _ in 0..40 {
        let mut lane = ChannelLane::new(channel, &geo, &tp);
        let mut now = 0;
        for _ in 0..400 {
            let lr = gen.gen_index(geo.ranks_per_channel as usize) as u32;
            let rank = rank_base + lr;
            let bank = BankId(bank_base + lr * bpr + gen.gen_index(bpr as usize) as u32);
            let all_closed = recount(&lane, rank) == 0;
            let (cmd, t) = match (lane.open_row(bank), gen.gen_index(6)) {
                (None, 0) => (DramCommand::Pre { bank }, lane.earliest_pre(bank, now)),
                (None, 1) => (DramCommand::Rfm { bank }, lane.earliest_act(bank, now, &tp)),
                (None, 2) if all_closed => {
                    (DramCommand::Ref { rank }, lane.earliest_ref(rank, now))
                }
                (None, 3) if all_closed => {
                    (DramCommand::Rfmab { rank }, lane.earliest_ref(rank, now))
                }
                (None, _) => {
                    let row = gen.gen_index(geo.rows_per_bank() as usize) as u32;
                    (
                        DramCommand::Act { bank, row },
                        lane.earliest_act(bank, now, &tp),
                    )
                }
                (Some(_), 0 | 1) => (DramCommand::Pre { bank }, lane.earliest_pre(bank, now)),
                (Some(_), 2) => (DramCommand::Wr { bank }, lane.earliest_wr(bank, now, &tp)),
                (Some(_), _) => (DramCommand::Rd { bank }, lane.earliest_rd(bank, now, &tp)),
            };
            lane.apply(cmd, t, &tp);
            now = t;
            for r in rank_base..rank_base + geo.ranks_per_channel {
                assert_eq!(
                    lane.open_banks(r),
                    recount(&lane, r),
                    "after {cmd:?} at {t}"
                );
            }
        }
    }
}

/// RAA counters: for any interleaving of ACTs and RFMs, the counter equals
/// total ACTs minus RAAIMT per RFM (floored at zero), and `needs_rfm`
/// matches the threshold comparison.
#[test]
fn raa_counter_arithmetic() {
    let mut gen = Xoshiro256::seed_from_u64(0xD4A8_0002);
    for _ in 0..50 {
        let len = 1 + gen.gen_index(499);
        let raaimt = 8u32;
        let mut raa = RaaCounters::new(1, raaimt);
        let bank = BankId(0);
        let mut model: i64 = 0;
        for _ in 0..len {
            if gen.gen_bool(0.5) {
                raa.on_act(bank);
                model += 1;
            } else {
                raa.on_rfm(bank);
                model = (model - raaimt as i64).max(0);
            }
            assert_eq!(raa.count(bank) as i64, model);
            assert_eq!(raa.needs_rfm(bank), model >= raaimt as i64);
        }
    }
}

/// RAA saturation edges: for arbitrary RAAIMT, the boundary behavior is
/// exact at threshold−1 (no demand), threshold (demand fires on exactly
/// that ACT), and far above threshold (every credit subtracts exactly
/// RAAIMT until the floor, then saturates at zero — never wraps). These
/// are the edges the PRAC per-row counters inherit for their recovery
/// accounting.
#[test]
fn raa_saturation_and_threshold_edges() {
    let mut gen = Xoshiro256::seed_from_u64(0xD4A8_0004);
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    for _ in 0..cases {
        let raaimt = 1 + gen.gen_range(0, 64) as u32;
        let b = BankId(0);
        let mut raa = RaaCounters::new(1, raaimt);

        // Threshold − 1: no demand, no obligation.
        for i in 0..raaimt.saturating_sub(1) {
            assert!(!raa.on_act(b), "premature demand at {i} (RAAIMT {raaimt})");
        }
        assert_eq!(raa.count(b), raaimt - 1);
        assert!(!raa.needs_rfm(b));
        assert_eq!(raa.rfms_required(), 0);

        // Threshold: exactly this ACT fires.
        assert!(raa.on_act(b), "no demand at RAAIMT {raaimt}");
        assert!(raa.needs_rfm(b));
        assert_eq!(raa.rfms_required(), 1);

        // Far above threshold: drive to `mult × RAAIMT + extra`, then
        // drain with a random mix of RFM and REF credits. Every credit
        // subtracts exactly RAAIMT while the count allows, and the
        // sequence must reach zero in ceil(count / RAAIMT) credits with
        // the final one saturating rather than wrapping.
        let mult = 2 + gen.gen_range(0, 6) as u32;
        let extra = gen.gen_range(0, raaimt as u64) as u32;
        let target = mult * raaimt + extra;
        while raa.count(b) < target {
            raa.on_act(b);
        }
        assert_eq!(raa.count(b), target);
        let mut credits = 0u32;
        while raa.count(b) > 0 {
            let before = raa.count(b);
            if gen.gen_bool(0.5) {
                raa.on_rfm(b);
            } else {
                raa.on_ref(b);
            }
            credits += 1;
            assert_eq!(raa.count(b), before.saturating_sub(raaimt));
            assert_eq!(raa.needs_rfm(b), raa.count(b) >= raaimt);
        }
        assert_eq!(credits, target.div_ceil(raaimt));
        // At the floor, further credits are saturating no-ops.
        raa.on_rfm(b);
        raa.on_ref(b);
        assert_eq!(raa.count(b), 0);
        assert!(!raa.needs_rfm(b));
    }
}

/// RFM/REF postponement interaction: for arbitrary postponement depths up
/// to the JEDEC ceiling, `must_refresh` trips exactly at
/// [`RankState::MAX_POSTPONE`], draining the debt clears the urgency, and
/// each drained REF credits the RAA counter by exactly RAAIMT (floored at
/// zero) — so a postponement stretch can never leave phantom RFM demand
/// behind. This is the shared machinery the PRAC recovery window rides on.
#[test]
fn rfm_postponement_ceiling_credits_raa() {
    let mut gen = Xoshiro256::seed_from_u64(0xD4A8_0005);
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let tp = TimingParams::tiny();
    for _ in 0..cases {
        let raaimt = 1 + gen.gen_range(0, 32) as u32;
        let acts = gen.gen_range(0, 12 * raaimt as u64) as u32;
        let debt = 1 + gen.gen_range(0, RankState::MAX_POSTPONE + 4);

        let mut rank = RankState::new(&tp);
        let mut raa = RaaCounters::new(1, raaimt);
        let b = BankId(0);
        for _ in 0..acts {
            raa.on_act(b);
        }

        // Let `debt` tREFI periods elapse without a REF.
        let now = tp.t_refi * debt;
        assert_eq!(rank.refresh_debt(now, &tp), debt);
        assert_eq!(
            rank.must_refresh(now),
            debt >= RankState::MAX_POSTPONE,
            "urgency must trip exactly at the ceiling (debt {debt})"
        );

        // Drain the whole debt; every REF credits the RAA counter.
        let mut t = now;
        let mut expected = acts;
        for _ in 0..debt {
            let (done, _) = rank.on_refresh(t, 64, &tp);
            raa.on_ref(b);
            expected = expected.saturating_sub(raaimt);
            assert_eq!(raa.count(b), expected);
            t = done;
        }
        assert_eq!(rank.refresh_debt(t, &tp), 0, "drain left debt behind");
        assert!(!rank.must_refresh(t));
        assert_eq!(rank.ref_count(), debt);
        // A fully-drained postponement stretch leaves demand only if the
        // ACT volume outran the credits.
        assert_eq!(
            raa.needs_rfm(b),
            acts.saturating_sub(debt as u32 * raaimt) >= raaimt
        );
    }
}

/// sPPR: translations always form an injection (no two faulty rows may
/// share a spare), and undo exactly restores identity.
#[test]
fn sppr_translation_injective() {
    let mut gen = Xoshiro256::seed_from_u64(0xD4A8_0003);
    for _ in 0..100 {
        let len = 1 + gen.gen_index(19);
        let rows: Vec<u32> = (0..len).map(|_| gen.gen_range(0, 64) as u32).collect();
        let mut sppr = SpprResources::new(1000, 8);
        let mut repaired = Vec::new();
        for r in rows {
            if sppr.repair(r).is_ok() {
                repaired.push(r);
            }
        }
        let translated: Vec<u32> = repaired.iter().map(|&r| sppr.translate(r)).collect();
        let mut dedup = translated.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), translated.len(), "spares shared");
        for &r in &repaired {
            sppr.undo(r);
            assert_eq!(sppr.translate(r), r);
        }
    }
}
