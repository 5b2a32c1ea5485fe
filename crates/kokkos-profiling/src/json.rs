//! Minimal JSON parser, serializer and chrome-trace schema validator.
//!
//! The container has no serde, so trace files are validated with a small
//! recursive-descent parser — enough JSON to round-trip what
//! [`crate::trace`] emits, used by the golden-schema tests and the CI
//! profiling job to prove the exported file is Perfetto-loadable. The
//! [`render`]/[`render_pretty`] serializers close the loop for documents
//! we *write* (`licom_bench`'s report, flight bundles): build a [`Json`]
//! tree, render it, and re-parse to schema-validate what actually landed
//! on disk. Any input at all — a file read from disk is one — parses to
//! `Ok` or `Err`: nesting is bounded by `MAX_DEPTH`, so the recursion
//! cannot overflow the stack.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Insert into an object; panics on non-objects (builder misuse).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(m) => {
                m.insert(key.to_string(), value);
            }
            _ => panic!("Json::set on a non-object"),
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no spelling for NaN/Inf; null keeps the document valid
        // and the gap visible.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn render_into(v: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    let (nl, pad, pad_close, colon) = match indent {
        Some(w) => (
            "\n",
            " ".repeat(w * (depth + 1)),
            " ".repeat(w * depth),
            ": ",
        ),
        None => ("", String::new(), String::new(), ":"),
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => render_num(*n, out),
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad);
                render_into(item, indent, depth + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad_close);
            out.push(']');
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad);
                render_string(k, out);
                out.push_str(colon);
                render_into(val, indent, depth + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad_close);
            out.push('}');
        }
    }
}

/// Serialize compactly. Object keys render in `BTreeMap` order, so the
/// output is deterministic for a given tree.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    render_into(v, None, 0, &mut out);
    out
}

/// Serialize with 2-space indentation — the diff-friendly form used for
/// committed artifacts like `licom_bench`'s `golden.json`.
pub fn render_pretty(v: &Json) -> String {
    let mut out = String::new();
    render_into(v, Some(2), 0, &mut out);
    out.push('\n');
    out
}

/// Deepest array / object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a run of `[` overflows the stack and
/// aborts the process; what this crate writes nests at most 5 levels.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse an array or object one level down, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    out.push_str(
                        std::str::from_utf8(&s[..ch_len.min(s.len())])
                            .map_err(|_| self.err("bad utf8"))?,
                    );
                    self.pos += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// What the validator measured about a trace document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub events: usize,
    pub spans: usize,
    pub instants: usize,
    pub counters: usize,
    pub metadata: usize,
    /// Distinct `(pid, tid)` tracks carrying non-metadata events.
    pub tracks: usize,
}

/// Validate an already-parsed chrome-trace document: the `traceEvents`
/// array exists, every event has `name`/`ph`/`ts`/`pid`/`tid`, every
/// `"X"` span a non-negative `dur`, and timestamps are monotone within
/// each `(pid, tid)` track.
pub fn validate_chrome_trace_value(doc: &Json) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut summary = TraceSummary::default();
    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: bad or missing `{field}`");
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("pid"))? as i64;
        summary.events += 1;
        match ph {
            "M" => {
                summary.metadata += 1;
                continue;
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                summary.spans += 1;
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            other => return Err(format!("event {i}: unknown ph `{other}`")),
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("tid"))? as i64;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("ts"))?;
        if let Some(prev) = last_ts.get(&(pid, tid)) {
            if ts < *prev {
                return Err(format!(
                    "event {i}: ts {ts} < {prev} — track ({pid},{tid}) not monotone"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
    }
    summary.tracks = last_ts.len();
    Ok(summary)
}

/// Parse + validate in one call (what `tests/profiled_run.rs` uses).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    validate_chrome_trace_value(&parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// The system allocator, noting the largest single request each thread
    /// has made: what parsing reserves is measured, not argued.
    struct LargestRequest;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every request is handed to `System` unchanged, so its contract
    // is this one's; the note taken on the way touches a `const`-initialized
    // thread-local `Cell<usize>` (no allocation, no destructor, skipped once
    // the thread is tearing down). `realloc` is the trait's default, which
    // goes through `alloc` and so is noted too.
    unsafe impl GlobalAlloc for LargestRequest {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
            // SAFETY: the caller's `layout`, passed through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc(layout)` above.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: LargestRequest = LargestRequest;

    /// `f()` and the largest single allocation it made on this thread.
    fn watched<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|l| l.set(0));
        let out = f();
        (out, LARGEST.with(Cell::get))
    }

    /// The most one allocation may take while reading `len` input bytes:
    /// one `Json` (32 B) per byte covers an array's item vector (at most
    /// one item per two bytes, doubled by growth) and any string or error
    /// message built from the input; the 1 KiB floor is one B-tree node.
    fn allowance(len: usize) -> usize {
        std::mem::size_of::<Json>() * len + 1024
    }

    /// Bytes weighted towards JSON's own syntax, so arbitrary inputs reach
    /// past the first byte: brackets, quotes, escapes, literals, numbers.
    const ALPHABET: &[u8] = b"[]{}[]{}\"\":,,0123456789.-+eEtrufalsn\\u \n\x01\xff";

    /// A flight bundle `read_bundle` accepts.
    const BUNDLE: &str = r#"{"schema":"licomkpp-flight-v1","reason":"guard-trip","ranks":[0,1],
        "events":[{"t_ns":1,"lamport":1,"rank":0,"kind":"StepBegin","a":3,"b":0,"c":0},
                  {"t_ns":2,"lamport":2,"rank":1,"kind":"GuardTrip","a":3,"b":2,"c":0}],
        "kernel_names":{"17":"FunctorNewLevelColumns"}}"#;

    /// `parse` on the text and `read_bundle` on the raw bytes: each must
    /// come back (`Ok` or `Err`) inside the allowance.
    fn check_both(bytes: &[u8], file: &std::path::Path) -> Result<(), TestCaseError> {
        let text = String::from_utf8_lossy(bytes);
        let (_, parse_peak) = watched(|| {
            let _ = parse(&text);
            let _ = validate_chrome_trace(&text);
        });
        prop_assert!(
            parse_peak <= allowance(text.len()),
            "parse of {} bytes made a {parse_peak} B allocation",
            text.len()
        );
        std::fs::write(file, bytes).unwrap();
        let (_, read_peak) = watched(|| {
            let _ = crate::flight::read_bundle(file);
        });
        std::fs::remove_file(file).ok();
        prop_assert!(
            read_peak <= allowance(bytes.len()),
            "read_bundle of {} bytes made a {read_peak} B allocation",
            bytes.len()
        );
        Ok(())
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kp-json-{}-{name}", std::process::id()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, from the whole byte range or from JSON's syntax.
        #[test]
        fn arbitrary_bytes_are_ok_or_err(
            raw in proptest::collection::vec(0u8..=u8::MAX, 0..4096),
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..4096),
        ) {
            let file = scratch_file("arbitrary.json");
            check_both(&raw, &file)?;
            let syntax: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
            check_both(&syntax, &file)?;
        }

        /// A valid bundle cut anywhere and followed by arbitrary bytes.
        #[test]
        fn valid_bundle_with_arbitrary_tail_is_ok_or_err(
            cut in 0usize..BUNDLE.len() + 1,
            tail in proptest::collection::vec(0u8..=u8::MAX, 0..512),
        ) {
            let mut bytes = BUNDLE.as_bytes()[..cut].to_vec();
            bytes.extend_from_slice(&tail);
            check_both(&bytes, &scratch_file("tail.json"))?;
        }
    }

    #[test]
    fn the_bundle_under_test_reads() {
        let file = scratch_file("bundle.json");
        std::fs::write(&file, BUNDLE).unwrap();
        let bundle = crate::flight::read_bundle(&file);
        std::fs::remove_file(&file).ok();
        assert_eq!(bundle.unwrap().events.len(), 2);
    }

    /// A run of `[` used to recurse once per byte and abort the process.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest(r#"{"a":"#, "}", MAX_DEPTH)).is_ok());
        for text in [
            nest("[", "]", MAX_DEPTH + 1),
            "[".repeat(200_000),
            r#"{"a":"#.repeat(200_000),
            "[{\"a\":".repeat(100_000),
        ] {
            let err = parse(&text).unwrap_err();
            assert!(err.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\ny"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
    }

    #[test]
    fn validator_accepts_well_formed_trace() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"args":{"name":"rank 0"}},
            {"name":"k1","cat":"kernel","ph":"X","ts":1.0,"dur":5.0,"pid":0,"tid":0},
            {"name":"k2","cat":"kernel","ph":"X","ts":6.0,"dur":2.0,"pid":0,"tid":0},
            {"name":"send","cat":"comm","ph":"i","ts":3.0,"pid":0,"tid":9},
            {"name":"dma","cat":"counter","ph":"C","ts":7.0,"pid":0,"tid":9,"args":{"bytes":12}}
        ]}"#;
        let s = validate_chrome_trace(doc).unwrap();
        assert_eq!(s.spans, 2);
        assert_eq!(s.instants, 1);
        assert_eq!(s.counters, 1);
        assert_eq!(s.metadata, 1);
        assert_eq!(s.tracks, 2);
    }

    #[test]
    fn validator_rejects_non_monotone_track() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":5.0,"dur":1.0,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":4.0,"dur":1.0,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn validator_rejects_span_without_dur() {
        let doc = r#"{"traceEvents":[{"name":"a","ph":"X","ts":5.0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(doc).is_err());
    }

    #[test]
    fn render_round_trips() {
        let doc = Json::obj([
            ("pi", Json::Num(3.25)),
            ("count", Json::from(42u64)),
            ("name", Json::from("line\n\"quoted\"")),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("empty", Json::Arr(vec![]))])),
        ]);
        for text in [render(&doc), render_pretty(&doc)] {
            assert_eq!(parse(&text).unwrap(), doc, "round-trip of: {text}");
        }
    }

    #[test]
    fn render_integers_without_fraction() {
        assert_eq!(render(&Json::Num(7.0)), "7");
        assert_eq!(render(&Json::Num(-2.5)), "-2.5");
        assert_eq!(render(&Json::Num(f64::NAN)), "null");
    }

    #[test]
    fn render_is_deterministic_across_insertion_order() {
        let a = Json::obj([("x", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        let b = Json::obj([("a", Json::Num(2.0)), ("x", Json::Num(1.0))]);
        assert_eq!(render(&a), render(&b));
    }
}
