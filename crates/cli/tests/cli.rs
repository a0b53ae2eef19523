//! End-to-end tests of the `psa` binary.

use std::process::Command;

fn psa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psa"))
}

fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("psa-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const LIST: &str = r#"
struct node { int v; struct node *nxt; };
int main() {
    struct node *list;
    struct node *p;
    int i;
    list = NULL;
    for (i = 0; i < 5; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        list = p;
    }
    return 0;
}
"#;

#[test]
fn analyze_prints_summary() {
    let f = write_tmp("list.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("level L1"));
    assert!(stdout.contains("list: List") || stdout.contains("list:"));
}

#[test]
fn analyze_json_is_valid() {
    let f = write_tmp("list_json.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    assert_eq!(v.get("function").unwrap().as_str(), Some("main"));
    assert!(!v.get("loops").unwrap().as_array().unwrap().is_empty());
    // Op-level metrics ride along in the stats object.
    let ops = v.get("stats").unwrap().get("ops").unwrap();
    assert!(ops.get("insert_calls").unwrap().as_i64().unwrap() > 0);
    assert!(ops.get("subsume_queries").unwrap().as_i64().unwrap() > 0);
}

#[test]
fn stats_flag_prints_op_counters() {
    let f = write_tmp("list_stats.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("engine op statistics:"));
    assert!(stdout.contains("subsumption:"));
    assert!(stdout.contains("interner:"));
    assert!(stdout.contains("peak RSRSG width:"));
}

#[test]
fn analyze_levels_and_auto() {
    let f = write_tmp("list_lvl.c", LIST);
    for lvl in ["L1", "L2", "L3", "auto"] {
        let out = psa()
            .args(["analyze", f.to_str().unwrap(), "--level", lvl])
            .output()
            .unwrap();
        assert!(out.status.success(), "level {lvl}");
    }
}

#[test]
fn ir_dump_contains_statements() {
    let f = write_tmp("list_ir.c", LIST);
    let out = psa().args(["ir", f.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p->nxt = list"));
    assert!(stdout.contains("ipvars"));
}

#[test]
fn dot_export_writes_file() {
    let f = write_tmp("list_dot.c", LIST);
    let dir = std::env::temp_dir().join("psa-cli-tests").join("dots");
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--dot",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let dot = std::fs::read_to_string(dir.join("exit.dot")).unwrap();
    assert!(dot.contains("digraph"));
}

#[test]
fn bench_code_builtin_runs() {
    let out = psa().args(["bench-code", "matvec"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matvec"));
}

#[test]
fn unknown_flag_fails_cleanly() {
    let f = write_tmp("list_bad.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--frobnicate"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn serve_rejects_analyze_only_flags() {
    // Every analysis knob arrives in the request params; a daemon flag
    // other than the cache files is a usage error, not silently ignored.
    for args in [
        &["serve", "--level", "L3", "--check", "memory", "--dot", "x"][..],
        &["serve", "--json"][..],
    ] {
        let out = psa()
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{}`", args[1])),
            "{stderr}"
        );
        assert!(stderr.contains("--load-cache FILE"), "{stderr}");
    }
    let missing = psa()
        .args(["serve", "--save-cache"])
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--save-cache needs a file"));

    // The cache flags themselves still work: EOF on stdin ends the loop
    // and the tables are snapshotted.
    let cache = std::env::temp_dir()
        .join("psa-cli-tests")
        .join("serve_flags.cache");
    std::fs::create_dir_all(cache.parent().unwrap()).unwrap();
    let out = psa()
        .args(["serve", "--save-cache", cache.to_str().unwrap()])
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(cache.exists());
}

#[test]
fn budget_deadline_exits_nonzero_with_partial_report() {
    let out = psa()
        .args(["bench-code", "lu", "--budget-ms", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "partial result must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("partial result"),
        "partial report still printed: {stdout}"
    );
    assert!(stderr.contains("stopped early"), "{stderr}");
    assert!(
        !stderr.contains("panicked") && !stdout.contains("panicked"),
        "cancellation must be panic-free"
    );
}

#[test]
fn budget_nodes_degrades_but_succeeds() {
    let out = psa()
        .args([
            "bench-code",
            "power",
            "--level",
            "L2",
            "--budget-nodes",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "forced summarization completes: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[degraded]"), "{stdout}");
    assert!(stdout.contains("degraded statements"), "{stdout}");
}

#[test]
fn budget_nodes_in_recursive_callee_stops_soundly() {
    // A node budget tight enough to degrade *inside* a recursive callee
    // must not let the caller keep a too-precise summary: the engine
    // reports a sound early stop (nonzero exit), never a silent success.
    let out = psa()
        .args([
            "bench-code",
            "treeadd",
            "--level",
            "L2",
            "--budget-nodes",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "budget-starved summary must not claim success"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stopped early"), "{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "sound stop, not a crash: {stderr}"
    );
}

#[test]
fn budget_json_carries_degradation_fields() {
    let out = psa()
        .args(["bench-code", "matvec", "--budget-rsgs", "1", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "soft stop still exits nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.get("degraded").unwrap().as_bool(), Some(true));
    assert!(stats.get("stopped").unwrap().as_str().is_some());
}

#[test]
fn budget_flag_rejects_garbage_value() {
    let f = write_tmp("list_badbudget.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--budget-ms", "soon"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a number"));
}

#[test]
fn parse_error_reports_location() {
    let f = write_tmp("bad.c", "int main() { struct nope *p; }");
    let out = psa()
        .args(["analyze", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
}

#[test]
fn annotate_emits_source_with_verdicts() {
    let f = write_tmp("list_ann.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--annotate"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("/* psa: loop"));
    assert!(
        stdout.contains("p->nxt = list;"),
        "original source preserved"
    );
}

#[test]
fn leak_report_flag_runs() {
    let f = write_tmp("list_leak.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--leak-report"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("leak / dead-code report"));
}

const UAF: &str = r#"
struct node { int v; struct node *nxt; };
int main() {
    struct node *p;
    p = (struct node *) malloc(sizeof(struct node));
    p->nxt = NULL;
    free(p);
    p->v = 1;
    return 0;
}
"#;

#[test]
fn check_memory_flags_violations_and_exits_nonzero() {
    let f = write_tmp("uaf.c", UAF);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory",
            "--seeds",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a definite UAF must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("memory-safety report"));
    assert!(stdout.contains("use-after-free"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("memory violation verdict"),
        "clean failure line, got: {stderr}"
    );
}

#[test]
fn check_accepts_comma_separated_list() {
    let f = write_tmp("list_both_checks.c", LIST);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "asserts,memory",
            "--seeds",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("memory-safety report"));
}

#[test]
fn check_rejects_unknown_value_cleanly() {
    let f = write_tmp("list_bad_check.c", LIST);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "asserts,frobnicate",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown check `frobnicate`") && stderr.contains("valid: asserts, memory"),
        "clean diagnostic, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
}

#[test]
fn json_carries_memory_section() {
    let f = write_tmp("list_mem_json.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    let mem = v.get("memory").expect("memory section present");
    let counts = mem.get("counts").expect("per-check counts");
    for check in ["null-deref", "use-after-free", "double-free", "leak"] {
        assert!(counts.get(check).is_some(), "missing counts for {check}");
    }
}

const RECURSIVE: &str = r#"
struct tnode { int v; struct tnode *l; struct tnode *r; };
struct tnode *treealloc(int level) {
    struct tnode *t;
    t = (struct tnode *) malloc(sizeof(struct tnode));
    t->v = 1;
    t->l = NULL;
    t->r = NULL;
    if (level > 0) {
        t->l = treealloc(level - 1);
        t->r = treealloc(level - 1);
    }
    return t;
}
int main() {
    struct tnode *root;
    root = treealloc(4);
    return 0;
}
"#;

#[test]
fn check_duplicates_run_once_and_json_shape_is_stable() {
    // `--check memory,memory` must behave exactly like `--check memory`:
    // one checker run, one report section, one JSON key.
    let f = write_tmp("list_dup_check.c", LIST);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory,memory",
            "--seeds",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("memory-safety report").count(),
        1,
        "duplicate --check entries must not duplicate the report:\n{stdout}"
    );

    let dup = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory,memory",
            "--seeds",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(dup.status.success());
    let single = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory",
            "--seeds",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(single.status.success());
    // Wall-clock counters (elapsed_ms, *_ns, peak_bytes) vary run to run;
    // everything else must match exactly.
    fn stable(raw: &[u8]) -> String {
        String::from_utf8_lossy(raw)
            .lines()
            .filter(|l| {
                !(l.contains("_ns\":") || l.contains("elapsed_ms") || l.contains("peak_bytes"))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
    let dup_json = String::from_utf8_lossy(&dup.stdout).into_owned();
    assert_eq!(
        stable(&dup.stdout),
        stable(&single.stdout),
        "deduped --check list must produce identical JSON"
    );
    // Exactly one "memory" key in the raw text (a parsed object would
    // silently collapse duplicates, so pin the serialized shape).
    assert_eq!(dup_json.matches("\"memory\":").count(), 1);
}

#[test]
fn json_carries_call_sites_and_summary_stats_for_recursive_input() {
    let f = write_tmp("rectree.c", RECURSIVE);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    let calls = v.get("calls").expect("calls section for recursive input");
    let rows = calls.as_array().expect("calls is an array");
    assert!(!rows.is_empty());
    let row = rows
        .iter()
        .find(|r| r.get("callee").and_then(|c| c.as_str()) == Some("treealloc"))
        .expect("treealloc call row");
    assert_eq!(row.get("recursive").and_then(|b| b.as_bool()), Some(true));
    let ops = v.get("stats").unwrap().get("ops").expect("ops stats");
    let queries = ops
        .get("summary_queries")
        .and_then(|q| q.as_f64())
        .expect("summary_queries counter");
    assert!(
        queries > 0.0,
        "recursive input goes through the summary path"
    );
    assert!(ops.get("summary_hit_rate").is_some());
}
