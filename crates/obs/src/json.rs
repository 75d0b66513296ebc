//! The workspace's one JSON codec.
//!
//! The workspace deliberately vendors no serde.  [`Json::render`] follows
//! the hand-rolled canonical discipline of the exporters in
//! [`export`](crate::export): keys render in insertion order, floats use
//! Rust's shortest round-trip formatting (non-finite values become
//! `null`), and strings escape the JSON control set, so outputs are
//! stable across runs and machines.  [`parse`] is a recursive descent over
//! the full grammar with a depth limit instead of recursion-to-overflow.
//!
//! `prorp-trace --json`, the `prorp-bench` records, the `prorp-server` API
//! bodies and event streams, and [`parse_trace_jsonl`](crate::export::parse_trace_jsonl)
//! all go through this module.

use std::fmt::Write as _;

/// Maximum number of containers the parser accepts around any value.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer; [`parse`] yields every integer as this variant.
    Int(i64),
    /// An unsigned integer (rendering only).
    UInt(u64),
    /// A float (`NaN`/`±inf` render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { text: input, at: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != input.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.at..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.at
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(b),
                self.at
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.at))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary.
            let run = self
                .rest()
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let stop = self.rest()[run];
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run + 1;
            if stop == b'"' {
                return Ok(out);
            }
            let escape = self.peek();
            self.at += 1;
            match escape {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => out.push(self.unicode_escape()?),
                _ => return Err(format!("bad escape at byte {}", self.at - 1)),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is already consumed; a
    /// high surrogate must be followed by an escaped low one (RFC 8259 §7).
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.at - 2;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.rest().starts_with(b"\\u") {
            self.at += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate \\u escape at byte {start}"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u escape at byte {start}"))
    }

    /// Exactly four hex digits (no sign, unlike bare `u32::from_str_radix`).
    fn hex4(&mut self) -> Result<u32, String> {
        let at = self.at;
        let code = self
            .text
            .get(at..at + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        self.skip_digits();
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.at += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.at];
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("integer overflow at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_nested_values_compactly() {
        let v = Json::object(vec![
            ("n", Json::UInt(3)),
            ("qos", Json::Float(99.5)),
            ("label", Json::Str("eu\"1\"".into())),
            ("rows", Json::Array(vec![Json::Int(-1), Json::Bool(true)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"n":3,"qos":99.5,"label":"eu\"1\"","rows":[-1,true]}"#
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
        assert_eq!(Json::Float(0.25).render(), "0.25");
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = Json::Str("a\nb\u{1}".into());
        assert_eq!(v.render(), "\"a\\nb\\u0001\"");
    }

    #[test]
    fn round_trips_the_ingest_body() {
        let body =
            r#"{"events":[{"db":3,"at":120,"kind":"login"},{"db":4,"at":130,"kind":"logout"}]}"#;
        let v = parse(body).unwrap();
        let events = v.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("db").unwrap().as_int(), Some(3));
        assert_eq!(events[1].get("kind").unwrap().as_str(), Some("logout"));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parses_escapes_floats_and_null() {
        let v = parse(r#"{"s":"a\"b\nc","f":1.5e2,"n":null,"b":true}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\nc"));
        assert_eq!(v.get("f"), Some(&Json::Float(150.0)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            "{} trailing",
            r#""unterminated"#,
            "99999999999999999999",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn long_strings_and_multibyte_runs_parse() {
        let long = "x".repeat(1 << 20);
        assert_eq!(parse(&format!("\"{long}\"")), Ok(Json::Str(long)));
        let mixed = parse(r#""é\n日本\"😀\\éß\t""#).unwrap();
        assert_eq!(mixed, Json::Str("é\n日本\"😀\\éß\t".into()));
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04""#, r#""\u00g1""#] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
        assert_eq!(parse(r#""\u0041""#), Ok(Json::Str("A".into())));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".into())));
        assert_eq!(parse(r#""a\uD834\uDD1Eb""#), Ok(Json::Str("a𝄞b".into())));
    }

    #[test]
    fn lone_and_misordered_surrogates_are_rejected() {
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ud83d""#,
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    /// Strings over every `char`, ASCII and control characters favoured.
    fn text() -> impl Strategy<Value = String> {
        let to_char = |c: u32| char::from_u32(c).unwrap_or('\u{fffd}');
        let ch = prop_oneof![
            (0u32..0x80).prop_map(to_char),
            (0u32..0x11_0000).prop_map(to_char)
        ];
        prop::collection::vec(ch, 0..12).prop_map(String::from_iter)
    }

    /// Trees of `Null`/`Bool`/`Int`/`Str`/`Array`/`Object` whose values
    /// sit inside at most `depth` containers.
    struct Tree {
        depth: usize,
    }

    impl Strategy for Tree {
        type Value = Json;
        fn generate(&self, rng: &mut proptest::TestRng) -> Json {
            let inner = || Tree {
                depth: self.depth - 1,
            };
            match (0..if self.depth == 0 { 4 } else { 6 }).generate(rng) {
                0 => Json::Null,
                1 => Json::Bool(any::<bool>().generate(rng)),
                2 => Json::Int(any::<i64>().generate(rng)),
                3 => Json::Str(text().generate(rng)),
                4 => Json::Array(prop::collection::vec(inner(), 0..4).generate(rng)),
                _ => Json::Object(prop::collection::vec((text(), inner()), 0..4).generate(rng)),
            }
        }
    }

    /// Wrap `v` in one array (`true`) or single-key object per flag.
    fn nest(v: Json, layers: &[bool]) -> Json {
        layers.iter().fold(v, |v, &array| {
            if array {
                Json::Array(vec![v])
            } else {
                Json::object(vec![("k", v)])
            }
        })
    }

    /// Fragments that splice into near-JSON: trace fields, escapes,
    /// surrogate halves, numbers at the `i64` edge.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "\"",
        ":",
        ",",
        " ",
        "\\",
        "\\u",
        "d83d",
        "de00",
        "00e9",
        "-",
        "0",
        "7",
        "1.5e3",
        "9223372036854775808",
        "true",
        "null",
        "\"start\":1",
        "\"end\":2",
        "\"db\":3",
        "\"seq\":0",
        "\"kind\":\"login\"",
        "\"available\":false",
        "\"kind\":\"decision\"",
        "\"action\":\"defer-pause\"",
        "\n",
        "é",
        "😀",
    ];

    const TRACE_LINE: &str =
        "{\"start\":110,\"end\":110,\"db\":7,\"seq\":10,\"kind\":\"decision\",\
        \"action\":\"proactive-resume\",\"predicted\":470400,\"history_len\":12,\"hits\":3,\
        \"basis\":4,\"breaker_open\":false,\"cache_hit\":true}";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parsers_never_panic(
            tokens in prop::collection::vec(0..TOKENS.len(), 0..12),
            cut in 0..TRACE_LINE.len(),
            noise in text(),
        ) {
            let spliced: String = tokens.iter().map(|&i| TOKENS[i]).collect();
            let near_trace = format!("{}{spliced}{}", &TRACE_LINE[..cut], &TRACE_LINE[cut..]);
            for input in [&spliced, &near_trace, &noise] {
                let _ = parse(input);
                let _ = crate::export::parse_trace_jsonl(input);
            }
        }

        #[test]
        fn render_then_parse_is_identity(v in Tree { depth: MAX_DEPTH }) {
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }

        #[test]
        fn depth_limit_is_exact(
            leaf in Tree { depth: 0 },
            layers in prop::collection::vec(any::<bool>(), MAX_DEPTH + 1),
        ) {
            let at_limit = nest(leaf.clone(), &layers[..MAX_DEPTH]);
            prop_assert_eq!(parse(&at_limit.render()), Ok(at_limit));
            prop_assert!(parse(&nest(leaf, &layers).render()).is_err());
        }
    }
}
