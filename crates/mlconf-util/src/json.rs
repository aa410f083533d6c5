//! A small self-contained JSON tree: recursive-descent parser and
//! canonical renderer.
//!
//! The workspace has no serde_json (offline vendor stubs only), and the
//! service's determinism contract needs one property the standard
//! library already provides: Rust's `{}` formatting of `f64` prints the
//! shortest decimal string that round-trips, so render → parse is
//! bit-exact for every finite double. Non-finite values have no JSON
//! representation; the API layer tags them as strings (`"inf"`,
//! `"-inf"`, `"nan"`) before they reach this module.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`]; beyond it the input is
/// rejected rather than risking the parser's stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (rendering is therefore
    /// deterministic given deterministic construction).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is a number with no fractional
    /// part that fits `i64` exactly.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && n >= i64::MIN as f64 && n <= i64::MAX as f64 {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip form; an integral value keeps a
                    // trailing ".0"-free form ("3"), which parses back to
                    // the identical f64.
                    let _ = write!(out, "{n}");
                } else {
                    // Defensive: non-finite numbers must be tagged by the
                    // caller before rendering.
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
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
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object from key/value pairs (insertion order preserved).
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing garbage is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Take the full UTF-8 character starting at the byte
                    // just consumed: chars are always consumed whole, so
                    // this offset is a character boundary.
                    let start = self.pos - 1;
                    let c = self.text[start..]
                        .chars()
                        .next()
                        .expect("peeked byte exists");
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        // Exactly four hex digits: `from_str_radix` alone would also
        // take a sign.
        if !self.bytes[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid unicode escape"));
        }
        let cp = u32::from_str_radix(&self.text[self.pos..end], 16).expect("four hex digits");
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_before = self.digits();
        if digits_before == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let n: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("number out of range"))?;
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(self.err("number out of range"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for s in ["null", "true", "false", "0", "-1", "3.5", "\"hi\""] {
            let v = parse(s).unwrap();
            assert_eq!(v.render(), s);
        }
    }

    #[test]
    fn doubles_round_trip_bit_exact() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
            123_456_789.123_456_79,
        ] {
            let rendered = Json::Num(x).render();
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {rendered}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#" {"a": [1, {"b": null}, "x\n\"y\""], "c": true} "#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
    }

    #[test]
    fn escapes_render_and_reparse() {
        let s = "quote\" slash\\ nl\n tab\t ctrl\u{0001} unicode\u{00e9}";
        let rendered = Json::Str(s.to_owned()).render();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "01x",
            "{\"a\":1} extra",
            "nul",
            "- 1",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integral_doubles_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u00e9\u00E9""#).unwrap().as_str(), Some("éé"));
        for bad in [r#""\u+0e9""#, r#""\u-0e9""#, r#""\u0e9""#, r#""\u0é9""#] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn long_multibyte_strings_parse_in_linear_time() {
        // 240 KB of two- and four-byte characters in one string: a
        // parser that rescans the rest of the input per character takes
        // seconds here.
        let text = "é😀".repeat(40_000);
        let doc = Json::Arr(vec![Json::Str(text.clone()), Json::Num(1.0)]).render();
        assert!(doc.len() > 200_000);
        let start = std::time::Instant::now();
        let back = parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(back.as_arr().unwrap()[0].as_str(), Some(text.as_str()));
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    /// `a == b` with every number compared by its bits.
    fn same_bits(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(xs), Json::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
            }
            (Json::Obj(xs), Json::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
            }
            _ => a == b,
        }
    }

    /// A string over ASCII, the characters the renderer escapes, and
    /// multibyte characters up to U+10FFFF.
    fn random_string(rng: &mut crate::rng::SplitMix64) -> String {
        const SPECIAL: [char; 10] = [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀',
        ];
        (0..rng.next_u64() % 12)
            .map(|_| {
                let r = rng.next_u64();
                match r % 3 {
                    0 => char::from(b' ' + (r >> 8) as u8 % 95),
                    1 => SPECIAL[(r >> 8) as usize % SPECIAL.len()],
                    _ => char::from_u32((r >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                }
            })
            .collect()
    }

    /// A random tree: finite doubles of any bit pattern and small
    /// integers, strings from [`random_string`], nested `depth` deep.
    fn random_tree(rng: &mut crate::rng::SplitMix64, depth: usize) -> Json {
        let r = rng.next_u64();
        match r % if depth == 0 { 5 } else { 7 } {
            0 => Json::Null,
            1 => Json::Bool(r & 8 != 0),
            2 => Json::Num(((r >> 8) % 2001) as f64 - 1000.0),
            3 => loop {
                let x = f64::from_bits(rng.next_u64());
                if x.is_finite() {
                    break Json::Num(x);
                }
            },
            4 => Json::Str(random_string(rng)),
            5 => Json::Arr(
                (0..(r >> 8) % 5)
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..(r >> 8) % 5)
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// JSON-ish tokens, so arbitrary input reaches past the first byte.
    const TOKENS: [&str; 24] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "d83d", "dc00", "00e9", "0", "7", "-",
        ".", "e+", "1e400", "true", "nul", " ", "é", "😀", "\n",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn generated_trees_round_trip_bit_exact(seed in 0u64..u64::MAX) {
            let tree = random_tree(&mut crate::rng::SplitMix64::new(seed), 4);
            let back = parse(&tree.render());
            proptest::prop_assert!(
                back.as_ref().is_ok_and(|b| same_bits(b, &tree)),
                "{tree:?} came back as {back:?}"
            );
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn arbitrary_tokens_never_panic(
            picks in proptest::collection::vec(0usize..TOKENS.len(), 0..96),
        ) {
            let doc: String = picks.iter().map(|&i| TOKENS[i]).collect();
            let _ = parse(&doc);
        }

        #[test]
        fn damaged_documents_never_panic(
            seed in 0u64..u64::MAX,
            at in 0usize..usize::MAX,
            with in proptest::collection::vec(0u8..=255, 0..16),
        ) {
            let mut bytes = random_tree(&mut crate::rng::SplitMix64::new(seed), 4)
                .render()
                .into_bytes();
            let at = at % (bytes.len() + 1);
            // An empty overwrite truncates; otherwise the bytes replace
            // (and may extend) the document from `at` on.
            if with.is_empty() {
                bytes.truncate(at);
            } else {
                bytes.splice(at..(at + with.len()).min(bytes.len()), with);
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
