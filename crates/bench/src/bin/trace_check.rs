//! Validates observability artifacts produced by the figure bins — the
//! CI smoke check behind `fig4_opamp --trace-out ... --metrics-out ...`.
//!
//! * `--trace <path>` — the file must parse as JSON, contain a non-empty
//!   `traceEvents` array whose complete (`ph == "X"`) events all carry
//!   `name`/`ts`/`dur`/`pid`/`tid`, and embed the hardware context in
//!   `otherData`. This is the shape Perfetto / `chrome://tracing` loads.
//!   The profile must also add up: the spans' self times must sum to
//!   within 5% of the trace's wall-clock extent × `threads_used`, so
//!   every millisecond is attributed to exactly one span. A multi-thread
//!   run sums below that wherever threads idle (serial phases,
//!   stragglers), so the check is meant for one-thread traces.
//! * `--metrics <path>` — the file must parse as JSON and the named
//!   `--expect-counter <name>` entries (repeatable) must be present and
//!   nonzero.
//! * `--dashboard <path>` — the file must be a self-contained HTML
//!   document with every dashboard section id present, every `href="#…"`
//!   pointing at an existing id, and the embedded JSON blobs
//!   (`health-data`, `drift-data`, `fleet-data`) must re-parse after
//!   undoing the `</` → `<\/` embedding escape.
//! * `--expect-health <ok|warn|critical>` — with `--dashboard`, the
//!   `health-data` blob must be non-null and report exactly that overall
//!   severity.
//! * `--events <path>` — the file must be well-formed JSONL: every line
//!   parses as a JSON object carrying `seq`/`ts_ns`/`tid` numbers, a
//!   valid `level`, and a `kind` string, with `seq` strictly increasing
//!   and at most one distinct `run_id` across the log. The named
//!   `--expect-event <kind>` entries (repeatable) must each appear.
//! * `--flight <path>` — the file must be a flight-recorder dump: a
//!   `reason` string, `run_id`, numeric `captured`/`capacity`, and an
//!   `events` array of well-formed events no longer than `capacity`.
//! * `--prom <url-or-file>` — a Prometheus text-format exposition,
//!   fetched live from an `http://` URL (the `--obs-listen` server's
//!   `/metrics` endpoint) or read from a file, must pass the
//!   text-format 0.0.4 conformance checks in
//!   `bmf_obs::prom::validate_exposition`.
//! * `--fleet <path>` — the `fleet-<run_id>.json` artifact `bmf merge`
//!   writes must carry `run_id`, wall-clock aggregates, and per-shard
//!   rows whose straggler flags agree with the `stragglers` list.
//! * `--fleet-trace <path>` — a stitched fleet trace from
//!   `bmf merge --fleet-trace-out`: the Perfetto shape checks of
//!   `--trace` plus one `thread_name` track per stitched shard and the
//!   `shards`/`stitched` coverage fields in `otherData`.
//!
//! Exits 0 when every requested check passes, 1 otherwise.

use bmf_obs::json::Value;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    bmf_obs::error!("trace_check: FAIL: {msg}");
    ExitCode::FAILURE
}

/// Validates one structured event object (a JSONL line or a
/// flight-recorder `events[]` entry).
fn check_event_object(ev: &Value, what: &str) -> Result<(), String> {
    for key in ["seq", "ts_ns", "tid"] {
        if ev.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("{what} has no numeric {key}"));
        }
    }
    match ev.get("level").and_then(Value::as_str) {
        Some("error" | "warn" | "info" | "debug") => {}
        other => return Err(format!("{what} has invalid level {other:?}")),
    }
    if ev.get("kind").and_then(Value::as_str).is_none() {
        return Err(format!("{what} has no kind string"));
    }
    Ok(())
}

/// Validates a JSONL event log: every line parses, events are
/// well-formed with strictly increasing `seq`, the log carries at most
/// one distinct `run_id`, and every expected kind appears.
fn check_events(text: &str, expect: &[String]) -> Result<(usize, Option<String>), String> {
    let mut count = 0usize;
    let mut last_seq = -1.0f64;
    let mut run_id: Option<String> = None;
    let mut kinds: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = bmf_obs::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        check_event_object(&ev, &format!("line {}", i + 1))?;
        let seq = ev.get("seq").and_then(Value::as_f64).unwrap_or(-1.0);
        if seq <= last_seq {
            return Err(format!(
                "line {}: seq {seq} is not strictly increasing (previous {last_seq})",
                i + 1
            ));
        }
        last_seq = seq;
        if let Some(id) = ev.get("run_id").and_then(Value::as_str) {
            match &run_id {
                None => run_id = Some(id.to_string()),
                Some(seen) if seen != id => {
                    return Err(format!(
                        "line {}: run_id {id:?} differs from {seen:?}",
                        i + 1
                    ));
                }
                Some(_) => {}
            }
        }
        if let Some(kind) = ev.get("kind").and_then(Value::as_str) {
            kinds.insert(kind.to_string());
        }
        count += 1;
    }
    if count == 0 {
        return Err("event log is empty".to_string());
    }
    for kind in expect {
        if !kinds.contains(kind) {
            return Err(format!(
                "no {kind:?} event in the log (kinds seen: {kinds:?})"
            ));
        }
    }
    Ok((count, run_id))
}

/// Validates a flight-recorder dump document.
fn check_flight(doc: &Value) -> Result<(String, usize), String> {
    let reason = doc
        .get("reason")
        .and_then(Value::as_str)
        .ok_or("flight dump has no reason string")?;
    if doc.get("run_id").and_then(Value::as_str).is_none() {
        return Err("flight dump has no run_id".to_string());
    }
    let capacity = doc
        .get("capacity")
        .and_then(Value::as_f64)
        .ok_or("flight dump has no numeric capacity")? as usize;
    let captured = doc
        .get("captured")
        .and_then(Value::as_f64)
        .ok_or("flight dump has no numeric captured")? as usize;
    let events = doc
        .get("events")
        .and_then(Value::as_array)
        .ok_or("flight dump has no events array")?;
    if events.len() != captured {
        return Err(format!(
            "captured says {captured} but events array has {}",
            events.len()
        ));
    }
    if events.len() > capacity {
        return Err(format!(
            "events array ({}) exceeds capacity ({capacity})",
            events.len()
        ));
    }
    for (i, ev) in events.iter().enumerate() {
        check_event_object(ev, &format!("event {i}"))?;
    }
    Ok((reason.to_string(), events.len()))
}

/// Fetches a check's input text: a one-shot `http://` GET against the
/// live `--obs-listen` server's `/metrics`, or a plain file read for anything else. The server closes every
/// connection, so read-to-EOF frames the body.
fn fetch_source(source: &str) -> Result<String, String> {
    let Some(rest) = source.strip_prefix("http://") else {
        return std::fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"));
    };
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/metrics"),
    };
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(authority)
        .map_err(|e| format!("cannot connect to {authority}: {e}"))?;
    let timeout = Some(std::time::Duration::from_secs(5));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {authority}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response from {authority}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{source}: response has no header/body separator"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("{source}: non-200 response: {status:?}"));
    }
    Ok(body.to_string())
}

/// Validates a merged fleet-summary document (`FleetSummary::to_json`,
/// the `fleet-<run_id>.json` artifact and the dashboard `fleet-data`
/// blob): aggregates present, per-shard rows well-formed with strictly
/// increasing indices, and the `stragglers` list agreeing with the
/// per-row flags.
fn check_fleet(doc: &Value) -> Result<(usize, usize), String> {
    if doc.get("run_id").and_then(Value::as_str).is_none() {
        return Err("fleet summary has no run_id string".to_string());
    }
    for key in ["median_wall_ns", "slowest_wall_ns", "straggler_ratio"] {
        if doc.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("fleet summary has no numeric {key}"));
        }
    }
    let stragglers = doc
        .get("stragglers")
        .and_then(Value::as_array)
        .ok_or("fleet summary has no stragglers array")?;
    let shards = doc
        .get("shards")
        .and_then(Value::as_array)
        .ok_or("fleet summary has no shards array")?;
    let mut flagged = Vec::new();
    let mut last_index = -1.0f64;
    for (i, row) in shards.iter().enumerate() {
        for key in ["index", "wall_ns", "sims", "retries", "events"] {
            if row.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("fleet shard {i} has no numeric {key}"));
            }
        }
        let index = row.get("index").and_then(Value::as_f64).unwrap_or(-1.0);
        if index <= last_index {
            return Err(format!(
                "fleet shard {i}: index {index} is not strictly increasing (previous {last_index})"
            ));
        }
        last_index = index;
        match row.get("straggler").and_then(Value::as_bool) {
            Some(true) => flagged.push(index),
            Some(false) => {}
            None => return Err(format!("fleet shard {i} has no straggler bool")),
        }
    }
    let listed: Vec<f64> = stragglers.iter().filter_map(Value::as_f64).collect();
    if listed != flagged {
        return Err(format!(
            "stragglers list {listed:?} disagrees with the flagged rows {flagged:?}"
        ));
    }
    Ok((shards.len(), flagged.len()))
}

/// Validates a stitched fleet trace (`bmf merge --fleet-trace-out`):
/// the Perfetto shape checks of [`check_trace`] plus one `thread_name`
/// metadata track per stitched shard and the coverage fields the
/// stitcher records in `otherData`.
fn check_fleet_trace(doc: &Value) -> Result<(usize, usize), String> {
    let (total, _complete) = check_trace(doc)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let track_tids: std::collections::BTreeSet<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter_map(|e| e.get("tid").and_then(Value::as_f64))
        .map(|t| t.to_string())
        .collect();
    let span_tids: std::collections::BTreeSet<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(Value::as_f64))
        .map(|t| t.to_string())
        .collect();
    if track_tids != span_tids {
        return Err(format!(
            "thread_name tracks {track_tids:?} disagree with span tids {span_tids:?}"
        ));
    }
    let other = doc.get("otherData").ok_or("missing otherData")?;
    let shards = other
        .get("shards")
        .and_then(Value::as_f64)
        .ok_or("otherData has no numeric shards")?;
    let stitched = other
        .get("stitched")
        .and_then(Value::as_f64)
        .ok_or("otherData has no numeric stitched")?;
    if stitched != track_tids.len() as f64 {
        return Err(format!(
            "otherData says {stitched} stitched track(s) but the trace has {}",
            track_tids.len()
        ));
    }
    if stitched > shards {
        return Err(format!(
            "stitched {stitched} exceeds the study's {shards} shard(s)"
        ));
    }
    if other.get("run_id").and_then(Value::as_str).is_none() {
        return Err("otherData has no run_id".to_string());
    }
    Ok((total, track_tids.len()))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    bmf_obs::json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn check_trace(doc: &Value) -> Result<(usize, usize), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        for key in ["name", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} (ph {ph}) has no {key}"));
            }
        }
        if ph == "X" {
            complete += 1;
            let ts = ev.get("ts").and_then(Value::as_f64);
            let dur = ev.get("dur").and_then(Value::as_f64);
            match (ts, dur) {
                (Some(ts), Some(dur)) if ts >= 0.0 && dur >= 0.0 => {}
                _ => return Err(format!("complete event {i} has bad ts/dur")),
            }
        }
    }
    if complete == 0 {
        return Err("no complete (ph == X) span events".to_string());
    }
    let other = doc.get("otherData").ok_or("missing otherData")?;
    for key in ["detected_cores", "threads_used"] {
        if other.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("otherData has no numeric {key}"));
        }
    }
    Ok((events.len(), complete))
}

/// How far the summed span self times may stray from wall × threads.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// Checks that a trace [`check_trace`] accepted adds up: Σ `self_us`
/// over the complete spans against the wall-clock extent of the trace
/// (first span open to last span close) times `otherData.threads_used`.
/// Returns the ratio.
fn check_attribution(doc: &Value) -> Result<f64, String> {
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let (mut self_us, mut first, mut last) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
    let spans = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"));
    for e in spans {
        self_us += e
            .get("args")
            .and_then(|a| a.get("self_us"))
            .and_then(Value::as_f64)
            .ok_or("a complete span has no numeric args.self_us")?;
        first = f64::min(first, num(e, "ts"));
        last = f64::max(last, num(e, "ts") + num(e, "dur"));
    }
    let threads = doc.get("otherData").map_or(1.0, |o| num(o, "threads_used"));
    let ratio = self_us / ((last - first) * threads);
    if (ratio - 1.0).abs() > ATTRIBUTION_TOLERANCE {
        return Err(format!(
            "span self times sum to {:.3} ms, {ratio:.3}x of wall {:.3} ms x {threads} \
             thread(s), beyond the {ATTRIBUTION_TOLERANCE} tolerance",
            self_us / 1e3,
            (last - first) / 1e3
        ));
    }
    Ok(ratio)
}

fn check_metrics(doc: &Value, expect: &[String]) -> Result<(), String> {
    let counters = doc.get("counters").ok_or("missing counters object")?;
    for name in expect {
        match counters.get(name).and_then(Value::as_f64) {
            Some(v) if v > 0.0 => {}
            Some(_) => return Err(format!("counter {name} is zero")),
            None => return Err(format!("counter {name} is missing")),
        }
    }
    Ok(())
}

/// Validates the structural shape of a health JSON object (the
/// `HealthReport::to_json` wire format).
fn check_health_object(health: &Value) -> Result<String, String> {
    let overall = health
        .get("overall")
        .and_then(Value::as_str)
        .ok_or("health has no overall severity string")?;
    if !matches!(overall, "ok" | "warn" | "critical") {
        return Err(format!(
            "health overall severity {overall:?} is not ok/warn/critical"
        ));
    }
    for section in ["conflict", "ess", "spectrum", "data_quality"] {
        let sec = health
            .get(section)
            .ok_or_else(|| format!("health has no {section} section"))?;
        match sec.get("severity").and_then(Value::as_str) {
            Some("ok" | "warn" | "critical") => {}
            _ => return Err(format!("health {section} has no valid severity")),
        }
    }
    Ok(overall.to_string())
}

/// Validates a drift-timeline JSON object (`DriftTimeline::to_json`).
fn check_drift_object(drift: &Value) -> Result<usize, String> {
    let windows = drift
        .get("windows")
        .and_then(Value::as_array)
        .ok_or("drift has no windows array")?;
    for (i, w) in windows.iter().enumerate() {
        for key in ["index", "start_sample", "n", "kl", "mean_dist", "cov_frob"] {
            if w.get(key).is_none() {
                return Err(format!("drift window {i} has no {key}"));
            }
        }
        match w.get("severity").and_then(Value::as_str) {
            Some("ok" | "warn" | "critical") => {}
            _ => return Err(format!("drift window {i} has no valid severity")),
        }
    }
    if drift.get("alerts").and_then(Value::as_array).is_none() {
        return Err("drift has no alerts array".to_string());
    }
    Ok(windows.len())
}

/// Extracts an embedded `<script type="application/json" id="...">` blob
/// from the dashboard HTML and parses it (undoing the `</` escape).
fn embedded_json(html: &str, id: &str) -> Result<Value, String> {
    let marker = format!("id=\"{id}\">");
    let start = html
        .find(&marker)
        .ok_or_else(|| format!("no embedded JSON blob with id {id}"))?
        + marker.len();
    let end = html[start..]
        .find("</script>")
        .ok_or_else(|| format!("blob {id} is not terminated by </script>"))?;
    let raw = html[start..start + end].replace("<\\/", "</");
    bmf_obs::json::parse(&raw).map_err(|e| format!("blob {id} is not valid JSON: {e}"))
}

/// The ids the dashboard always renders: the seven section anchors
/// plus the five machine-readable JSON blobs.
const DASHBOARD_IDS: [&str; 12] = [
    "profile",
    "metrics",
    "health",
    "shard",
    "fleet",
    "drift",
    "events",
    "health-data",
    "drift-data",
    "shard-data",
    "fleet-data",
    "events-data",
];

fn check_dashboard(html: &str, expect_health: Option<&str>) -> Result<String, String> {
    let lower = html.to_ascii_lowercase();
    if !lower.starts_with("<!doctype html") {
        return Err("missing <!doctype html> prologue".to_string());
    }
    if !lower.contains("</html>") {
        return Err("missing closing </html> tag".to_string());
    }
    for id in DASHBOARD_IDS {
        if !html.contains(&format!("id=\"{id}\"")) {
            return Err(format!("required id {id:?} is missing"));
        }
    }
    // Every internal link must point at an id that exists.
    let mut rest = html;
    while let Some(pos) = rest.find("href=\"#") {
        let tail = &rest[pos + 7..];
        let end = tail.find('"').ok_or("unterminated href attribute")?;
        let target = &tail[..end];
        if !html.contains(&format!("id=\"{target}\"")) {
            return Err(format!("href=\"#{target}\" has no matching id"));
        }
        rest = &tail[end..];
    }

    let health = embedded_json(html, "health-data")?;
    let health_desc = match &health {
        Value::Null => {
            if let Some(expected) = expect_health {
                return Err(format!(
                    "health-data is null but --expect-health {expected} was given"
                ));
            }
            "health: absent".to_string()
        }
        obj => {
            let overall = check_health_object(obj)?;
            if let Some(expected) = expect_health {
                if overall != expected {
                    return Err(format!(
                        "health overall is {overall:?}, expected {expected:?}"
                    ));
                }
            }
            format!("health: {overall}")
        }
    };
    let drift = embedded_json(html, "drift-data")?;
    let drift_desc = match &drift {
        Value::Null => "drift: absent".to_string(),
        obj => format!("drift: {} window(s)", check_drift_object(obj)?),
    };
    let fleet = embedded_json(html, "fleet-data")?;
    let fleet_desc = match &fleet {
        Value::Null => "fleet: absent".to_string(),
        obj => {
            let (shards, stragglers) = check_fleet(obj)?;
            format!("fleet: {shards} shard(s), {stragglers} straggler(s)")
        }
    };
    Ok(format!("{health_desc}, {drift_desc}, {fleet_desc}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let grab = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let trace = grab("--trace");
    let metrics = grab("--metrics");
    let dashboard = grab("--dashboard");
    let events = grab("--events");
    let flight = grab("--flight");
    let prom = grab("--prom");
    let fleet = grab("--fleet");
    let fleet_trace = grab("--fleet-trace");
    let expect_health = grab("--expect-health");
    if let Some(sev) = expect_health.as_deref() {
        if !matches!(sev, "ok" | "warn" | "critical") {
            return fail(&format!(
                "--expect-health must be ok, warn or critical (got {sev:?})"
            ));
        }
    }
    let expect: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--expect-counter")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let expect_events: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--expect-event")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    if trace.is_none()
        && metrics.is_none()
        && dashboard.is_none()
        && events.is_none()
        && flight.is_none()
        && prom.is_none()
        && fleet.is_none()
        && fleet_trace.is_none()
    {
        bmf_obs::error!(
            "usage: trace_check [--trace <json>] [--metrics <json>] [--expect-counter <name>]... \
             [--dashboard <html>] [--expect-health <ok|warn|critical>] \
             [--events <jsonl>] [--expect-event <kind>]... [--flight <json>] \
             [--prom <url-or-file>] [--fleet <json>] [--fleet-trace <json>]"
        );
        return ExitCode::FAILURE;
    }

    if let Some(path) = trace {
        let doc = match load(&path) {
            Ok(doc) => doc,
            Err(e) => return fail(&e),
        };
        match check_trace(&doc).and_then(|counts| Ok((counts, check_attribution(&doc)?))) {
            Ok(((total, complete), ratio)) => bmf_obs::outln!(
                "trace_check: {path}: {total} events ({complete} complete spans), hardware context present, \
                 self times sum to {ratio:.3}x wall x threads"
            ),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    if let Some(path) = metrics {
        let doc = match load(&path) {
            Ok(doc) => doc,
            Err(e) => return fail(&e),
        };
        match check_metrics(&doc, &expect) {
            Ok(()) => bmf_obs::outln!(
                "trace_check: {path}: {} expected counter(s) present and nonzero",
                expect.len()
            ),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    if let Some(path) = events {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        match check_events(&text, &expect_events) {
            Ok((count, run_id)) => bmf_obs::outln!(
                "trace_check: {path}: {count} well-formed event(s), run {}",
                run_id.as_deref().unwrap_or("(unstamped)")
            ),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    if let Some(path) = flight {
        let doc = match load(&path) {
            Ok(doc) => doc,
            Err(e) => return fail(&e),
        };
        match check_flight(&doc) {
            Ok((reason, n)) => bmf_obs::outln!(
                "trace_check: {path}: flight dump ({reason}), {n} event(s) within capacity"
            ),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    if let Some(source) = prom {
        let text = match fetch_source(&source) {
            Ok(text) => text,
            Err(e) => return fail(&e),
        };
        match bmf_obs::prom::validate_exposition(&text) {
            Ok(samples) => bmf_obs::outln!(
                "trace_check: {source}: conformant Prometheus exposition, {samples} sample(s)"
            ),
            Err(e) => return fail(&format!("{source}: {e}")),
        }
    }
    if let Some(path) = fleet {
        let doc = match load(&path) {
            Ok(doc) => doc,
            Err(e) => return fail(&e),
        };
        match check_fleet(&doc) {
            Ok((shards, stragglers)) => bmf_obs::outln!(
                "trace_check: {path}: well-formed fleet summary, {shards} shard(s), {stragglers} straggler(s)"
            ),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    if let Some(path) = fleet_trace {
        let doc = match load(&path) {
            Ok(doc) => doc,
            Err(e) => return fail(&e),
        };
        match check_fleet_trace(&doc) {
            Ok((total, tracks)) => bmf_obs::outln!(
                "trace_check: {path}: stitched fleet trace, {total} event(s) across {tracks} shard track(s)"
            ),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    if let Some(path) = dashboard {
        let html = match std::fs::read_to_string(&path) {
            Ok(html) => html,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        match check_dashboard(&html, expect_health.as_deref()) {
            Ok(desc) => bmf_obs::outln!(
                "trace_check: {path}: well-formed dashboard, all ids/links resolve ({desc})"
            ),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    bmf_obs::outln!("trace_check: OK");
    ExitCode::SUCCESS
}
