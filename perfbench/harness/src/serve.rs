//! The traced `serve-edit` run: the request lines the daemon client sends,
//! handed to an in-process `Server`. `Server::handle` hides the layers it
//! calls, so each request is one inclusive span, and the counters come from
//! the reports the responses carry. The `memory` and `loops` sections of the
//! timed reports are handed back whole: `run.py` counts their sites and
//! parallel loops with the readers it uses on the daemon's reports.

use crate::spans::Spans;
use crate::tally::Tally;
use psa_core::json::Json;
use psa_core::serve::{ServeOptions, Server};

/// The span a request runs in: warm-up `analyze` is set-up, the table
/// round trip is the snapshot layer, every `reanalyze` is a timed request.
fn span_name(method: &str) -> &'static str {
    match method {
        "save_cache" => "snapshot.save",
        "load_cache" => "snapshot.load",
        "reanalyze" => "serve",
        _ => "setup",
    }
}

/// Per-request times of the timed pass, the `memory` and `loops` sections
/// of its reports, and the failures seen.
pub struct Outcome {
    pub request_ns: Vec<u64>,
    pub sections: Vec<Json>,
    pub failures: Vec<String>,
}

/// Replay `requests` against an in-process server.
pub fn run(requests: &[Json], spans: &mut Spans, tally: &mut Tally) -> Outcome {
    let server = Server::new(ServeOptions::default());
    let mut out = Outcome {
        request_ns: Vec::new(),
        sections: Vec::new(),
        failures: Vec::new(),
    };
    for req in requests {
        let method = req.get("method").and_then(Json::as_str).unwrap_or("");
        let name = span_name(method);
        let start = std::time::Instant::now();
        let resp = spans.span(name, |_| server.handle(req.clone()));
        if name == "serve" {
            // The daemon writes each response as one compact line.
            let line = spans.span("report", |_| resp.compact());
            out.request_ns.push(start.elapsed().as_nanos() as u64);
            tally.report_bytes += line.len() as u64;
        }
        let Some(result) = resp.get("result") else {
            out.failures
                .push(format!("error response: {}", resp.compact()));
            continue;
        };
        match method {
            "save_cache" => {
                let path = req
                    .get("params")
                    .and_then(|p| p.get("path"))
                    .and_then(Json::as_str)
                    .unwrap_or("");
                tally.snapshot_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            }
            "reanalyze" => {
                tally.serve_reanalyze += 1;
                if result.get("incremental").and_then(Json::as_bool) == Some(true) {
                    tally.serve_incremental += 1;
                }
                let changed = result.get("changed_stmts").and_then(Json::as_array);
                tally.serve_changed_stmts += changed.map_or(0, |c| c.len() as u64);
                if let Some(report) = result.get("report") {
                    if let Some(stats) = report.get("stats") {
                        tally.engine_json(stats);
                    }
                    let mut sections = Json::obj();
                    for key in ["memory", "loops"] {
                        sections.set(key, report.get(key).cloned().unwrap_or(Json::Null));
                    }
                    out.sections.push(sections);
                }
            }
            _ => {}
        }
    }
    out
}
