//! The `fuzz-check` job: one seeded generated program through the
//! differential farm (both oracles at L1–L3) and the memory-safety check at
//! L1–L3, with the loop and JSON reports of each memory-check run.

use crate::spans::Spans;
use crate::tally::{safe_sites, Tally};
use psa_concrete::fuzz::{run_farm, synth_asserts, FuzzConfig};
use psa_concrete::{
    check_soundness_full, evaluate_asserts_with, validate_memory_report, DiffVerdict, InterpConfig,
};
use psa_core::engine::{Engine, EngineConfig};
use psa_core::json::Json;
use psa_core::stats::Budget;
use psa_rsg::Level;

/// Interpreter executions per program and level.
pub const EXEC_SEEDS: usize = 3;
/// Node cap of every analysis (forces coarser summaries, never stops).
pub const NODE_CAP: usize = 64;
/// Interpreter step cap per execution.
pub const STEP_CAP: usize = 3_000;

/// Program `i` of the pool has generator seed `POOL_SEED + i`: the farm's
/// default master seed, so the pool is the CI smoke batch and its
/// continuation.
pub const POOL_SEED: u64 = 0xC0DE5;

/// The program generator mix of `examples/fuzz_farm.rs`.
pub fn generate(seed: u64) -> String {
    match seed % 4 {
        0 => psa_codes::generators::dll_mutator_program(seed, 8),
        1 => psa_codes::generators::tree_mutator_program(seed, 8),
        _ => psa_codes::generators::random_program(seed, 20, 4),
    }
}

/// Execution seeds of a program: the farm's own splitmix derivation.
pub fn exec_seeds(program_seed: u64) -> Vec<u64> {
    (0..EXEC_SEEDS as u64)
        .map(|k| {
            let mut z = program_seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        })
        .collect()
}

fn budget() -> Budget {
    Budget {
        max_nodes: Some(NODE_CAP),
        ..Budget::default()
    }
}

fn interp() -> InterpConfig {
    InterpConfig {
        max_steps: STEP_CAP,
        ..InterpConfig::default()
    }
}

fn engine_config(level: Level) -> EngineConfig {
    EngineConfig {
        budget: budget(),
        ..EngineConfig::at_level(level)
    }
}

/// What one job concluded.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub checks: usize,
    pub passes: usize,
    pub inconclusive: usize,
    /// Farm soundness failures (coverage or assertion mismatch).
    pub failures: Vec<String>,
    /// Refuted memory `safe` claims.
    pub mismatches: Vec<String>,
    /// Memory checks that stopped before their fixed point.
    pub memory_inconclusive: usize,
    pub safe: u64,
    pub sites: u64,
    pub loops: u64,
}

/// Run one job. Untraced it calls `run_farm` itself; traced it runs the
/// farm's per-level check through the public calls it is made of, each
/// inside a span, because `run_farm` hides them.
pub fn job(seed: u64, src: &str, spans: &mut Spans, tally: &mut Tally) -> Outcome {
    let seeds = exec_seeds(seed);
    let mut out = if spans.enabled() {
        let mut out = Outcome::default();
        for level in Level::ALL {
            farm_check(seed, src, level, &seeds, spans, tally, &mut out);
        }
        tally.fuzz_inconclusive += out.inconclusive as u64;
        out
    } else {
        let config = FuzzConfig {
            master_seed: seed,
            programs: 1,
            levels: Level::ALL.to_vec(),
            exec_seeds: EXEC_SEEDS,
            budget: budget(),
            max_steps: STEP_CAP,
            minimize: false,
            ..FuzzConfig::default()
        };
        let rep = run_farm(&config, |_| src.to_string());
        Outcome {
            checks: rep.checks,
            passes: rep.passes,
            inconclusive: rep.inconclusive,
            failures: rep
                .failures
                .iter()
                .map(|f| format!("{} at {}: {}", f.kind, f.level, f.detail))
                .collect(),
            ..Outcome::default()
        }
    };
    for level in Level::ALL {
        memory_check(seed, src, level, &seeds, spans, tally, &mut out);
    }
    out
}

/// One (program, level) check of the farm: coverage oracle, then the
/// synthesized-assertion oracle (the farm's `check_program`).
fn farm_check(
    seed: u64,
    src: &str,
    level: Level,
    seeds: &[u64],
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    out.checks += 1;
    let Some(ir) = frontend(src, spans, tally) else {
        out.failures
            .push(format!("frontend rejected the program at {level}"));
        return;
    };
    let diff = spans.span("concrete", |_| {
        check_soundness_full(src, engine_config(level), interp(), seeds)
    });
    tally.concrete(seed, &seeds[..diff.runs], diff.violations.len());
    match diff.verdict() {
        DiffVerdict::Violation => {
            let why = diff.violations.first().cloned().unwrap_or_default();
            out.failures.push(format!("coverage at {level}: {why}"));
            return;
        }
        DiffVerdict::Inconclusive => {
            out.inconclusive += 1;
            return;
        }
        DiffVerdict::Pass => {}
    }
    let result = match spans.span("engine", |_| Engine::new(&ir, engine_config(level)).run()) {
        Ok(r) if r.stopped.is_none() => r,
        _ => {
            out.inconclusive += 1;
            return;
        }
    };
    tally.engine(&result);
    let rep = spans.span("concrete", |_| {
        let asserts = synth_asserts(&ir);
        evaluate_asserts_with(&ir, &result, &asserts, seeds, interp())
    });
    let bad = rep.soundness_mismatches();
    tally.concrete(seed, &seeds[..rep.runs], bad.len());
    match bad.first() {
        Some(b) => out.failures.push(format!(
            "assert-mismatch at {level}: `{}`",
            b.assertion.text
        )),
        None => out.passes += 1,
    }
}

fn frontend(src: &str, spans: &mut Spans, tally: &mut Tally) -> Option<psa_ir::FuncIr> {
    let (program, table) = spans
        .span("cfront", |_| psa_cfront::parse_and_type(src))
        .ok()?;
    let ir = spans
        .span("ir", |_| psa_ir::lower_program(&program, &table, "main"))
        .ok()?;
    tally.ir_stmts += ir.stmts.len() as u64;
    Some(ir)
}

/// The memory-safety check at one level (what `check_memory` does), plus
/// the loop report and the JSON report of the same result.
fn memory_check(
    seed: u64,
    src: &str,
    level: Level,
    seeds: &[u64],
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let Some(ir) = frontend(src, spans, tally) else {
        out.mismatches
            .push(format!("frontend rejected the program at {level}"));
        return;
    };
    let result = match spans.span("engine", |_| Engine::new(&ir, engine_config(level)).run()) {
        Ok(r) => r,
        Err(e) => {
            out.mismatches
                .push(format!("analysis failed at {level}: {e}"));
            return;
        }
    };
    tally.engine(&result);
    let abs = spans.span("memsafe", |_| {
        psa_core::memsafe::memory_report(&ir, &result)
    });
    let diff = spans.span("concrete", |_| {
        validate_memory_report(&ir, &abs, interp(), seeds)
    });
    tally.memory(&abs, &diff, seed, seeds);
    if diff.inconclusive.is_some() {
        out.memory_inconclusive += 1;
    }
    out.mismatches.extend(
        diff.mismatches
            .iter()
            .map(|m| format!("memory at {level}: {m}")),
    );
    let (safe, sites) = safe_sites(&abs);
    out.safe += safe;
    out.sites += sites;
    let loops = spans.span("parallel", |_| {
        psa_core::parallel::loop_reports(&ir, &result)
    });
    let parallel = loops.iter().filter(|l| l.parallelizable).count() as u64;
    out.loops += parallel;
    tally.parallel_loops += parallel;
    // `build_report` runs the memory, loop and leak passes again inside
    // itself, so `report` time includes a second copy of the `memsafe` and
    // `parallel` work above.
    let json = spans.span("report", |_| {
        psa_core::report::build_report(&ir, &result).to_json_string()
    });
    tally.report_bytes += json.len() as u64;
}

/// The job's result row.
pub fn outcome_json(out: &Outcome) -> Json {
    let mut j = Json::obj();
    j.set("checks", out.checks);
    j.set("passes", out.passes);
    j.set("inconclusive", out.inconclusive + out.memory_inconclusive);
    j.set(
        "failures",
        out.failures
            .iter()
            .chain(&out.mismatches)
            .map(String::as_str)
            .collect::<Json>(),
    );
    j.set("safe", out.safe);
    j.set("sites", out.sites);
    j.set("loops", out.loops);
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The execution seeds match the farm's private derivation. Clean
    /// programs pass under any seeds, so the verdict comparison below
    /// cannot catch a drift here; these values were printed by
    /// `exec_seeds_for` in `psa_concrete::fuzz` for the first three pool
    /// programs.
    #[test]
    fn exec_seeds_match_run_farm() {
        let farm: [[u64; EXEC_SEEDS]; 3] = [
            [
                808720974087382614,
                16465777434899723518,
                7822178416581491280,
            ],
            [
                5467616294352003619,
                11618045108716001199,
                3163283194771656237,
            ],
            [
                10315348656559487562,
                6959149759212143810,
                17139969137037629019,
            ],
        ];
        for (i, seeds) in farm.iter().enumerate() {
            assert_eq!(exec_seeds(POOL_SEED + i as u64), seeds, "program {i}");
        }
    }

    /// The traced replica of the farm's check reaches the same verdicts as
    /// `run_farm` itself.
    #[test]
    fn traced_farm_check_agrees_with_run_farm() {
        for i in 0..8 {
            let seed = POOL_SEED + i;
            let src = generate(seed);
            let plain = job(seed, &src, &mut Spans::new(false), &mut Tally::default());
            let traced = job(seed, &src, &mut Spans::new(true), &mut Tally::default());
            assert_eq!(plain, traced, "program {seed}");
            assert_eq!(plain.checks, 3);
        }
    }
}
