//! The workspace's hand-rolled JSON machinery: a writer, a minimal
//! parser, and a Chrome trace-event schema check.
//!
//! The build environment vendors no serde, so everything that speaks
//! JSON — the Chrome trace exporter ([`crate::chrome`]), `grafterc
//! --json` (diagnostics and `Report` serialization), and the
//! `grafter-server` wire protocol — shares this one module instead of
//! each growing another copy:
//!
//! - [`JsonWriter`] is a streaming writer with automatic comma
//!   management (and [`escape`] for string contents).
//! - [`parse`] turns a JSON document into a [`Json`] tree (numbers kept
//!   as `f64`, which is enough for microsecond timestamps at trace
//!   scale and for the server protocol's sizes/seeds). Nesting deeper
//!   than [`MAX_DEPTH`] is a [`JsonError`], so hostile input cannot
//!   overflow the parsing thread's stack.
//! - [`validate_chrome_trace`] checks the shape Perfetto requires —
//!   a top-level `traceEvents` array whose events carry
//!   `name`/`ph`/`pid`, with `ts` and `dur` on every complete (`"X"`)
//!   event.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Escapes `s` as the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A streaming JSON writer with automatic comma management.
///
/// Containers nest via [`JsonWriter::begin_obj`] / [`JsonWriter::begin_arr`];
/// inside an object every value is preceded by a [`JsonWriter::key`], inside
/// an array values follow each other directly. The writer inserts the commas,
/// so callers never thread `if i > 0` through their emission loops. Output is
/// compact (no whitespace), matching what the parser half of this module and
/// every external consumer (Perfetto, `python3 -m json`) accept.
///
/// ```
/// use grafter_obs::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_obj();
/// w.key("xs").begin_arr();
/// w.num(1);
/// w.num(2);
/// w.end_arr();
/// w.key("ok").bool(true);
/// w.end_obj();
/// assert_eq!(w.finish(), r#"{"xs":[1,2],"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Per-open-container count of items written so far.
    items: Vec<usize>,
    /// Whether the next value completes a `key(..)` (no comma, no count).
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// An empty writer with `n` bytes of output pre-allocated.
    pub fn with_capacity(n: usize) -> Self {
        JsonWriter {
            buf: String::with_capacity(n),
            ..JsonWriter::default()
        }
    }

    /// Comma bookkeeping before a value (or container opening) begins.
    fn pad_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(n) = self.items.last_mut() {
            if *n > 0 {
                self.buf.push(',');
            }
            *n += 1;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.pad_value();
        self.buf.push('{');
        self.items.push(0);
        self
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) -> &mut Self {
        self.items.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.pad_value();
        self.buf.push('[');
        self.items.push(0);
        self
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) -> &mut Self {
        self.items.pop();
        self.buf.push(']');
        self
    }

    /// Writes an object key (escaped); the next write is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        if let Some(n) = self.items.last_mut() {
            if *n > 0 {
                self.buf.push(',');
            }
            *n += 1;
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        self.after_key = true;
        self
    }

    /// Writes a string value (escaped).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.pad_value();
        self.buf.push('"');
        self.buf.push_str(&escape(s));
        self.buf.push('"');
        self
    }

    /// Writes an integer value (any type formatting as a plain decimal).
    pub fn num(&mut self, n: impl fmt::Display) -> &mut Self {
        self.pad_value();
        let _ = write!(self.buf, "{n}");
        self
    }

    /// Writes a float value; non-finite floats become quoted strings to
    /// keep the document parseable (JSON has no NaN/Inf literals).
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.pad_value();
        if x.is_finite() {
            let _ = write!(self.buf, "{x}");
        } else {
            let _ = write!(self.buf, "\"{x}\"");
        }
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.pad_value();
        self.buf.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.pad_value();
        self.buf.push_str("null");
        self
    }

    /// Writes a pre-rendered JSON fragment as one value, verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.pad_value();
        self.buf.push_str(json);
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse or validation failure, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input (0 for schema errors).
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Far above any real
/// input: the deepest case-study tree sent inline nests about 630 levels.
pub const MAX_DEPTH: usize = 4096;

/// An array or object the parser is inside of: its items so far, or
/// its entries so far and the key awaiting its value.
enum Open {
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>, String),
}

struct Parser<'s> {
    src: &'s [u8],
    pos: usize,
}

impl<'s> Parser<'s> {
    fn err<T>(&self, msg: &str) -> Result<T, JsonError> {
        Err(JsonError {
            msg: msg.to_string(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, val: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    /// Parses one value. Iterative: open arrays and objects live on an
    /// explicit stack, so nesting costs heap, not call frames, and stops
    /// at [`MAX_DEPTH`].
    fn value(&mut self) -> Result<Json, JsonError> {
        let mut open: Vec<Open> = Vec::new();
        loop {
            self.skip_ws();
            let mut val = match self.peek() {
                Some(b @ (b'{' | b'[')) => {
                    if open.len() == MAX_DEPTH {
                        return self.err(&format!("nesting deeper than {MAX_DEPTH} levels"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    match (b, self.peek()) {
                        (b'[', Some(b']')) => {
                            self.pos += 1;
                            Json::Arr(Vec::new())
                        }
                        (b'{', Some(b'}')) => {
                            self.pos += 1;
                            Json::Obj(BTreeMap::new())
                        }
                        (b'[', _) => {
                            open.push(Open::Arr(Vec::new()));
                            continue;
                        }
                        _ => {
                            let key = self.key()?;
                            open.push(Open::Obj(BTreeMap::new(), key));
                            continue;
                        }
                    }
                }
                Some(b'"') => Json::Str(self.string()?),
                Some(b't') => self.eat_lit("true", Json::Bool(true))?,
                Some(b'f') => self.eat_lit("false", Json::Bool(false))?,
                Some(b'n') => self.eat_lit("null", Json::Null)?,
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number()?,
                Some(_) => return self.err("unexpected character"),
                None => return self.err("unexpected end of input"),
            };
            // Store the value in its container; each closing bracket
            // completes the container as the next value up.
            loop {
                self.skip_ws();
                let close = match open.last_mut() {
                    None => return Ok(val),
                    Some(Open::Arr(items)) => {
                        items.push(val);
                        b']'
                    }
                    Some(Open::Obj(map, key)) => {
                        map.insert(std::mem::take(key), val);
                        b'}'
                    }
                };
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if let Some(Open::Obj(_, key)) = open.last_mut() {
                            *key = self.key()?;
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        self.pos += 1;
                        val = match open.pop() {
                            Some(Open::Arr(items)) => Json::Arr(items),
                            Some(Open::Obj(map, _)) => Json::Obj(map),
                            None => unreachable!("a container is open"),
                        };
                    }
                    _ => return self.err(&format!("expected ',' or '{}'", close as char)),
                }
            }
        }
    }

    /// An object key and its colon.
    fn key(&mut self) -> Result<String, JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                // Surrogate pairs are not needed for the
                                // identifiers this crate emits.
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape as one
                    // slice. The document is a `&str` and both delimiters
                    // are ASCII, so the run is whole UTF-8 and checking it
                    // costs its own length only.
                    let start = self.pos;
                    self.pos += self.src[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.src.len() - start);
                    let run =
                        std::str::from_utf8(&self.src[start..self.pos]).map_err(|_| JsonError {
                            msg: "invalid utf-8".into(),
                            at: start,
                        })?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err("bad number"),
        }
    }
}

/// Parses a JSON document, requiring it to be fully consumed.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
    };
    let val = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing data after document");
    }
    Ok(val)
}

fn schema_err(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// Checks that `doc` has the shape of a Chrome trace-event document:
/// a top-level object with a `traceEvents` array, every event an object
/// with string `name`/`ph` and numeric `pid`, and `ts`/`dur` present and
/// non-negative on every complete (`"X"`) event. Returns the number of
/// events on success.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, JsonError> {
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| schema_err("missing traceEvents"))?
        .as_arr()
        .ok_or_else(|| schema_err("traceEvents is not an array"))?;
    for (i, ev) in events.iter().enumerate() {
        let fail = |what: &str| schema_err(format!("event {i}: {what}"));
        if !matches!(ev, Json::Obj(_)) {
            return Err(fail("not an object"));
        }
        let name = ev.get("name").and_then(Json::as_str);
        if name.map_or(true, str::is_empty) {
            return Err(fail("missing name"));
        }
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing ph"))?;
        if ev.get("pid").and_then(Json::as_num).is_none() {
            return Err(fail("missing pid"));
        }
        if ph == "X" {
            for field in ["ts", "dur"] {
                match ev.get(field).and_then(Json::as_num) {
                    Some(n) if n >= 0.0 => {}
                    _ => return Err(fail(&format!("complete event missing {field}"))),
                }
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_num(),
            Some(300.0)
        );
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        let nested = parse(r#" { "x" : [ { } , [ ] , { "y" : [ 1 ] } ] , "z" : { } } "#).unwrap();
        let x = nested.get("x").unwrap().as_arr().unwrap();
        assert_eq!(x[0], Json::Obj(BTreeMap::new()));
        assert_eq!(x[1], Json::Arr(Vec::new()));
        assert_eq!(x[2].get("y").unwrap().as_arr(), Some(&[Json::Num(1.0)][..]));
        assert_eq!(nested.get("z"), Some(&Json::Obj(BTreeMap::new())));
    }

    /// String decoding is linear in the document: an inline-tree request
    /// of a megabyte must not take seconds. Decoding that rescans the
    /// rest of the document for every character takes tens of seconds on
    /// a document this size.
    #[test]
    fn megabyte_of_strings_parses_in_linear_time() {
        const KEYS: usize = 4000;
        let value = |i: usize| format!("{i:05} é \"q\" \\ {}", "x".repeat(240));
        let mut w = JsonWriter::new();
        w.begin_obj();
        for i in 0..KEYS {
            w.key(&format!("key_{i:05}")).str(&value(i));
        }
        w.end_obj();
        let doc = w.finish();
        assert!(doc.len() >= 1 << 20, "document is {} bytes", doc.len());

        let start = Instant::now();
        let parsed = parse(&doc).expect("document parses");
        let elapsed = start.elapsed();
        match &parsed {
            Json::Obj(map) => assert_eq!(map.len(), KEYS),
            other => panic!("not an object: {other:?}"),
        }
        for i in 0..KEYS {
            assert_eq!(
                parsed.get(&format!("key_{i:05}")).and_then(Json::as_str),
                Some(value(i).as_str()),
                "key {i}"
            );
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "parsing {} bytes took {elapsed:?}",
            doc.len()
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("[1}").is_err());
        assert!(parse(r#"{"a":1,}"#).is_err());
        assert!(parse(r#"{"a":1 "b":2}"#).is_err());
        assert!(parse(r#"[{"a":[]}"#).is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.msg.contains("nesting deeper than 4096"), "{err}");
        // far deeper input fails the same way instead of exhausting the stack
        assert_eq!(parse(&"[".repeat(1 << 20)).unwrap_err(), err);
    }

    #[test]
    fn validates_trace_shape() {
        let good =
            parse(r#"{"traceEvents":[{"name":"parse","ph":"X","pid":1,"tid":1,"ts":0,"dur":5}]}"#)
                .unwrap();
        assert_eq!(validate_chrome_trace(&good), Ok(1));

        let no_dur =
            parse(r#"{"traceEvents":[{"name":"parse","ph":"X","pid":1,"ts":0}]}"#).unwrap();
        assert!(validate_chrome_trace(&no_dur).is_err());

        let no_events = parse(r#"{"displayTimeUnit":"ms"}"#).unwrap();
        assert!(validate_chrome_trace(&no_events).is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let doc = parse(r#""Aé""#).unwrap();
        assert_eq!(doc.as_str(), Some("Aé"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn writer_manages_commas_and_nesting() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("a").num(1u64);
        w.key("b").begin_arr();
        w.str("x\n");
        w.null();
        w.bool(false);
        w.begin_obj();
        w.key("c").float(2.5);
        w.end_obj();
        w.end_arr();
        w.key("d").raw("{\"pre\":1}");
        w.end_obj();
        let doc = w.finish();
        assert_eq!(
            doc,
            r#"{"a":1,"b":["x\n",null,false,{"c":2.5}],"d":{"pre":1}}"#
        );
        // The writer's output must satisfy this module's own parser.
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn writer_quotes_non_finite_floats() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.float(f64::NAN);
        w.float(f64::INFINITY);
        w.end_arr();
        let doc = w.finish();
        assert_eq!(doc, r#"["NaN","inf"]"#);
        assert!(parse(&doc).is_ok());
    }
}
