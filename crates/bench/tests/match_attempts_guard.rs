//! Regression guard on the analysis hot path's CPU-cost proxy.
//!
//! `RunStats.match_attempts` is the paper's Table-1 style cost proxy for
//! rule evaluation. The live two-site scenario (the Figure 2 run) is
//! fully deterministic, so its total across every analyzer task is a
//! stable number: this test pins a ceiling recorded with the incremental
//! (TREAT-style agenda + alpha-indexed) engine. If a change to matching
//! pushes the total above the ceiling, the hot path has regressed toward
//! the naive rebuild-every-cycle behaviour and this fails.

use agentgrid::grid::ManagementGrid;
use agentgrid_bench::{standard_network, ALL_SKILLS};
use agentgrid_net::{FaultKind, ScheduledFault};

/// Total match attempts of the deterministic Figure-2 scenario, measured
/// at 1,776 with the incremental engine and its guard schedule (ceiling
/// leaves ~45% headroom for benign rule-set growth; checking guards only
/// after the whole join took 2,352). The naive engine's total for the
/// same run is far larger (it re-derives the full conflict set every
/// cycle), so any regression toward full rebuilds trips this immediately.
const MATCH_ATTEMPTS_CEILING: u64 = 2_600;

fn fig2_grid() -> ManagementGrid {
    ManagementGrid::builder()
        .network(standard_network(2, 4, 11))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from(
            "site-0-dev2",
            FaultKind::CpuRunaway,
            120_000,
        ))
        .fault(ScheduledFault::from(
            "site-1-dev0",
            FaultKind::LinkDown(2),
            180_000,
        ))
        .build()
}

#[test]
fn fig2_scenario_match_attempts_stay_under_ceiling() {
    let mut grid = fig2_grid();
    grid.run(10 * 60_000, 60_000);
    let attempts = grid.match_attempts();
    assert!(
        attempts > 0,
        "the scenario must exercise the analyzers' rule engine"
    );
    assert!(
        attempts <= MATCH_ATTEMPTS_CEILING,
        "analysis hot path regressed: {attempts} match attempts > ceiling {MATCH_ATTEMPTS_CEILING}"
    );
}

#[test]
fn fig2_scenario_match_attempts_are_deterministic() {
    let run = || {
        let mut grid = fig2_grid();
        grid.run(10 * 60_000, 60_000);
        grid.match_attempts()
    };
    assert_eq!(run(), run());
}
