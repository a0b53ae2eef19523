//! Per-layer counters, read from what the analyzer's public calls return,
//! and the per-layer metric object built from them and the span self
//! times.

use psa_concrete::MemDiffReport;
use psa_core::engine::AnalysisResult;
use psa_core::json::Json;
use psa_core::memsafe::MemReport;
use psa_core::stats::OpStats;
use std::collections::{BTreeMap, BTreeSet};

/// Counters summed over every job of a traced run.
///
/// Engine counters cover only runs that reached their fixed point: a run
/// stopped by its wall-clock limit did an amount of work that depends on
/// host speed, so it is counted in `engine_stopped` alone and every other
/// count repeats exactly between two runs with the same seed.
#[derive(Debug, Default)]
pub struct Tally {
    pub ir_stmts: u64,
    pub engine_iterations: u64,
    pub engine_stmt_transfers: u64,
    pub engine_peak_bytes: u64,
    pub engine_stopped: u64,
    pub ops: OpStats,
    pub memsafe_sites: u64,
    pub parallel_loops: u64,
    pub report_bytes: u64,
    pub concrete_runs: u64,
    /// Distinct `(program, seed)` executions.
    pub concrete_distinct: BTreeSet<(u64, u64)>,
    pub concrete_mismatches: u64,
    pub fuzz_inconclusive: u64,
    pub serve_reanalyze: u64,
    pub serve_incremental: u64,
    pub serve_changed_stmts: u64,
    pub snapshot_bytes: u64,
}

impl Tally {
    /// Record one engine run.
    pub fn engine(&mut self, result: &AnalysisResult) {
        if result.stopped.is_some() {
            self.engine_stopped += 1;
            return;
        }
        let s = &result.stats;
        self.engine_counts(
            s.iterations as u64,
            s.stmt_transfers as u64,
            s.peak_bytes as u64,
            &s.ops,
        );
    }

    /// Record one engine run from the `stats` section of a JSON report
    /// (what `psa serve` returns).
    pub fn engine_json(&mut self, stats: &Json) {
        if stats.get("stopped").and_then(Json::as_str).is_some() {
            self.engine_stopped += 1;
            return;
        }
        let n = |j: &Json, k: &str| j.get(k).and_then(Json::as_i64).unwrap_or(0) as u64;
        let o = stats.get("ops").cloned().unwrap_or(Json::Null);
        let ops = OpStats {
            subsume_queries: n(&o, "subsume_queries"),
            subsume_searches: n(&o, "subsume_searches"),
            join_calls: n(&o, "join_calls"),
            compress_calls: n(&o, "compress_calls"),
            prune_calls: n(&o, "prune_calls"),
            divide_calls: n(&o, "divide_calls"),
            materialize_calls: n(&o, "materialize_calls"),
            intern_hits: n(&o, "intern_hits"),
            intern_misses: n(&o, "intern_misses"),
            transfer_queries: n(&o, "transfer_queries"),
            transfer_memo_hits: n(&o, "transfer_memo_hits"),
            delta_graphs_reused: n(&o, "delta_graphs_reused"),
            delta_graphs_transferred: n(&o, "delta_graphs_transferred"),
            summary_queries: n(&o, "summary_queries"),
            summary_hits: n(&o, "summary_hits"),
            intern_lock_wait_ns: n(&o, "intern_lock_wait_ns"),
            subsume_lock_wait_ns: n(&o, "subsume_lock_wait_ns"),
            transfer_lock_wait_ns: n(&o, "transfer_lock_wait_ns"),
            ..OpStats::default()
        };
        self.engine_counts(
            n(stats, "iterations"),
            n(stats, "stmt_transfers"),
            n(stats, "peak_bytes"),
            &ops,
        );
    }

    fn engine_counts(&mut self, iterations: u64, transfers: u64, peak: u64, ops: &OpStats) {
        self.engine_iterations += iterations;
        self.engine_stmt_transfers += transfers;
        self.engine_peak_bytes = self.engine_peak_bytes.max(peak);
        self.ops = self.ops.accumulate(ops);
    }

    /// Record one memory check of `program` replayed under `seeds`.
    pub fn memory(&mut self, abs: &MemReport, diff: &MemDiffReport, program: u64, seeds: &[u64]) {
        self.memsafe_sites += safe_sites(abs).1;
        self.concrete(program, &seeds[..diff.runs], diff.mismatches.len());
    }

    /// Record interpreter executions of `program`, one per seed.
    pub fn concrete(&mut self, program: u64, seeds: &[u64], mismatches: usize) {
        self.concrete_runs += seeds.len() as u64;
        self.concrete_distinct
            .extend(seeds.iter().map(|&s| (program, s)));
        self.concrete_mismatches += mismatches as u64;
    }

    /// The per-layer metric object: span self times plus counters.
    pub fn metrics(&self, self_ns: &BTreeMap<&'static str, u64>) -> Json {
        let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let o = &self.ops;
        let mut m = Json::obj();
        let mut put = |name: &str, value: f64, unit: &str| {
            let mut v = Json::obj();
            v.set("value", value);
            v.set("unit", unit);
            m.set(name, v);
        };
        put("cfront.ms", ms("cfront"), "ms");
        put("ir.ms", ms("ir"), "ms");
        put("ir.stmts", self.ir_stmts as f64, "count");
        put("engine.ms", ms("engine"), "ms");
        put("engine.iterations", self.engine_iterations as f64, "count");
        put(
            "engine.stmt_transfers",
            self.engine_stmt_transfers as f64,
            "count",
        );
        put("engine.peak_mb", self.engine_peak_bytes as f64 / 1e6, "MB");
        put("engine.stopped", self.engine_stopped as f64, "count");
        let interns = o.intern_hits + o.intern_misses;
        put(
            "rsg.intern_hit_ratio",
            ratio(o.intern_hits, interns),
            "ratio",
        );
        put(
            "rsg.transfer_memo_hit_ratio",
            ratio(o.transfer_memo_hits, o.transfer_queries),
            "ratio",
        );
        put(
            "rsg.subsume_search_ratio",
            ratio(o.subsume_searches, o.subsume_queries),
            "ratio",
        );
        put(
            "rsg.graphs_reused_ratio",
            ratio(
                o.delta_graphs_reused,
                o.delta_graphs_reused + o.delta_graphs_transferred,
            ),
            "ratio",
        );
        put("rsg.interned_forms", o.intern_misses as f64, "count");
        put("rsg.lock_wait_ms", o.lock_wait_ns() as f64 / 1e6, "ms");
        put("rsg.compress_calls", o.compress_calls as f64, "count");
        put("rsg.join_calls", o.join_calls as f64, "count");
        put("rsg.divide_calls", o.divide_calls as f64, "count");
        put("rsg.prune_calls", o.prune_calls as f64, "count");
        put("rsg.materialize_calls", o.materialize_calls as f64, "count");
        put(
            "rsg.graphs_transferred",
            o.delta_graphs_transferred as f64,
            "count",
        );
        put(
            "interproc.summary_queries",
            o.summary_queries as f64,
            "count",
        );
        put(
            "interproc.summary_hit_ratio",
            ratio(o.summary_hits, o.summary_queries),
            "ratio",
        );
        put("memsafe.ms", ms("memsafe"), "ms");
        put("memsafe.sites", self.memsafe_sites as f64, "count");
        put("parallel.ms", ms("parallel"), "ms");
        put("parallel.loops", self.parallel_loops as f64, "count");
        put("report.ms", ms("report"), "ms");
        put("report.kbytes", self.report_bytes as f64 / 1e3, "kB");
        put("concrete.ms", ms("concrete"), "ms");
        put("concrete.runs", self.concrete_runs as f64, "count");
        put(
            "concrete.distinct_ratio",
            ratio(self.concrete_distinct.len() as u64, self.concrete_runs),
            "ratio",
        );
        put(
            "concrete.mismatches",
            self.concrete_mismatches as f64,
            "count",
        );
        put("fuzz.inconclusive", self.fuzz_inconclusive as f64, "count");
        put("serve.ms", ms("serve"), "ms");
        put(
            "serve.incremental_ratio",
            ratio(self.serve_incremental, self.serve_reanalyze),
            "ratio",
        );
        put(
            "serve.changed_stmts",
            self.serve_changed_stmts as f64,
            "count",
        );
        put("snapshot.save_ms", ms("snapshot.save"), "ms");
        put("snapshot.load_ms", ms("snapshot.load"), "ms");
        put("snapshot.mb", self.snapshot_bytes as f64 / 1e6, "MB");
        m
    }
}

/// `(sites proven safe, sites)` of a memory report.
pub fn safe_sites(abs: &MemReport) -> (u64, u64) {
    abs.counts().iter().fold((0, 0), |(safe, all), row| {
        (safe + row[0] as u64, all + row.iter().sum::<usize>() as u64)
    })
}
