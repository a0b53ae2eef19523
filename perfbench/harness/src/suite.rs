//! The traced `suite-cold` job: what `psa analyze <code>.c --level Lk
//! --check memory --json --budget-ms 10000` does, in-process and through
//! the public calls it is made of, each inside a span. `build_report`
//! computes the loop verdicts and the leak report, and runs the memory
//! check again, inside itself: all of that counts as `report` time.

use crate::spans::Spans;
use crate::tally::Tally;
use psa_concrete::{validate_memory_report, InterpConfig};
use psa_core::engine::{Engine, EngineConfig};
use psa_core::stats::Budget;
use psa_rsg::Level;
use std::time::Duration;

/// The wall-clock limit of every `suite-cold` job.
pub const LIMIT: Duration = Duration::from_millis(10_000);

/// The CLI's `--seeds` default: memory replays use seeds `1..=3`.
const SEEDS: [u64; 3] = [1, 2, 3];

/// What one job concluded; `failure` is a failed correctness gate.
pub struct Outcome {
    pub stopped: bool,
    pub failure: Option<String>,
}

/// Run one job. `program` identifies the source in the tally of distinct
/// concrete executions.
pub fn job(program: u64, src: &str, level: Level, spans: &mut Spans, tally: &mut Tally) -> Outcome {
    let fail = |why: String| Outcome {
        stopped: false,
        failure: Some(why),
    };
    let (ast, table) = match spans.span("cfront", |_| psa_cfront::parse_and_type(src)) {
        Ok(p) => p,
        Err(e) => return fail(format!("frontend: {e}")),
    };
    let ir = match spans.span("ir", |_| psa_ir::lower_program(&ast, &table, "main")) {
        Ok(ir) => ir,
        Err(e) => return fail(format!("lowering: {e}")),
    };
    tally.ir_stmts += ir.stmts.len() as u64;
    let config = EngineConfig {
        budget: Budget {
            deadline: Some(LIMIT),
            ..Budget::default()
        },
        ..EngineConfig::at_level(level)
    };
    let result = match spans.span("engine", |_| Engine::new(&ir, config).run()) {
        Ok(r) => r,
        Err(e) => return fail(format!("analysis: {e}")),
    };
    tally.engine(&result);
    let stopped = result.stopped.is_some();
    let abs = spans.span("memsafe", |_| {
        psa_core::memsafe::memory_report(&ir, &result)
    });
    let diff = spans.span("concrete", |_| {
        validate_memory_report(&ir, &abs, InterpConfig::default(), &SEEDS)
    });
    let (report, json) = spans.span("report", |_| {
        let report = psa_core::report::build_report(&ir, &result);
        let json = report.to_json_string();
        (report, json)
    });
    // A stopped run's partial result is not counted: its size depends on
    // how far the host got before the limit.
    if !stopped {
        tally.memory(&abs, &diff, program, &SEEDS);
        tally.parallel_loops += report.loops.iter().filter(|l| l.parallelizable).count() as u64;
        tally.report_bytes += json.len() as u64;
    }
    let failure = if let Some(m) = diff.mismatches.first() {
        Some(format!("memory `safe` claim refuted: {m}"))
    } else if abs.num_violations() > 0 {
        Some(format!(
            "{} memory violation verdict(s)",
            abs.num_violations()
        ))
    } else {
        None
    };
    Outcome { stopped, failure }
}
