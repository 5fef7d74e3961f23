//! A hand-rolled JSON value type, emitter, and parser.
//!
//! The build environment cannot fetch `serde`, so reports are emitted
//! through this module instead. It supports exactly the JSON data
//! model: the emitter escapes strings per RFC 8259, integers round-trip
//! exactly (`i64`/`u64` are kept out of floating point), and the parser
//! reads the serve daemon's requests and cache snapshots as well as
//! letting tests validate what the pipeline emits. Both scan strings a
//! run of plain bytes at a time, so their cost is linear in the
//! document.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer, emitted without a decimal point.
    Int(i64),
    /// Unsigned integer beyond `i64::MAX` still round-trips exactly.
    UInt(u64),
    /// Finite float (non-finite values emit as `null`).
    Float(f64),
    /// String (escaped on emission).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a field of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Depth-first search for an object that has `key == value` among
    /// its string fields; used by tests to find a span by name.
    pub fn find_object_with(&self, key: &str, value: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => {
                if matches!(self.get(key), Some(Json::Str(s)) if s == value) {
                    return Some(self);
                }
                fields
                    .iter()
                    .find_map(|(_, v)| v.find_object_with(key, value))
            }
            Json::Arr(items) => items.iter().find_map(|v| v.find_object_with(key, value)),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) if i >= 0 => Some(i as u64),
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

/// Equality is structural, with numbers compared by value: `Int(3)`,
/// `UInt(3)`, and `Float(3.0)` are all equal (the parser picks the
/// narrowest representation, so round-trip tests need this).
impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        use Json::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Arr(a), Arr(b)) => a == b,
            (Obj(a), Obj(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Int(a), UInt(b)) | (UInt(b), Int(a)) => *a >= 0 && *a as u64 == *b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            (UInt(a), Float(b)) | (Float(b), UInt(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::UInt(u) => write!(f, "{u}"),
            Json::Float(x) if x.is_finite() => {
                // Keep a decimal marker so floats re-parse as floats.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal. Bytes that need no escape are
/// written a run at a time: every byte that does (`"`, `\` and the
/// controls below 0x20) is ASCII, so each run ends on a char boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        f.write_str(&s[start..run_end(s, start, i)])?;
        if escape.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(escape)?;
        }
        start = i + 1;
    }
    f.write_str(&s[start..run_end(s, start, s.len())])?;
    f.write_str("\"")
}

#[cfg(test)]
thread_local! {
    /// Test-only mutation: end every copied run one char early, so the
    /// oracle comparisons can be shown to fail.
    static SHORT_RUNS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Where the copy of the plain run `text[start..end]` stops: at `end`,
/// except under the test-only `SHORT_RUNS` mutation.
#[inline(always)]
fn run_end(text: &str, start: usize, end: usize) -> usize {
    #[cfg(test)]
    if end > start && SHORT_RUNS.with(std::cell::Cell::get) {
        return text[..end]
            .char_indices()
            .next_back()
            .map_or(start, |(i, _)| i);
    }
    let _ = (text, start);
    end
}

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The char a high and a low surrogate encode together; `None` when
/// `lo` is not a low surrogate.
fn surrogate_pair(hi: u32, lo: u32) -> Option<char> {
    if !(0xDC00..0xE000).contains(&lo) {
        return None;
    }
    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Scans a string literal. Each run of plain bytes up to the next
    /// `"`, `\` or control byte is copied with one `push_str`: those
    /// bytes are ASCII, so they sit on char boundaries of `text`, and
    /// the whole scan is linear in the literal's length.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.text[start..run_end(self.text, start, self.pos)]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes the escape sequence at `pos` (which holds its `\`)
    /// onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.pos += 1;
        let Some(&esc) = self.bytes.get(self.pos) else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'u' => {
                let cp = self.hex4(self.pos, "\\u escape")?;
                self.pos += 4;
                // Surrogate pairs.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.bytes.get(self.pos) == Some(&b'\\')
                        && self.bytes.get(self.pos + 1) == Some(&b'u')
                    {
                        let lo = self.hex4(self.pos + 2, "surrogate")?;
                        self.pos += 6;
                        surrogate_pair(cp, lo).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("lone surrogate"));
                    }
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    /// The four hex digits of the `what` (`\u` escape or surrogate)
    /// that start at `at`; errors are reported at `pos`.
    fn hex4(&self, at: usize, what: &str) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err(&format!("truncated {what}")))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err(&format!("non-ASCII {what}")))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err(&format!("bad {what}")))
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_and_round_trips_strings() {
        let nasty = "quote \" backslash \\ newline \n tab \t unicode é \u{1F600} ctrl \u{01}";
        let v = Json::Str(nasty.to_string());
        let emitted = v.to_string();
        assert_eq!(Json::parse(&emitted).unwrap(), v);
    }

    #[test]
    fn integers_round_trip_exactly() {
        for v in [
            Json::Int(0),
            Json::Int(-1),
            Json::Int(i64::MIN),
            Json::Int(i64::MAX),
            Json::UInt(u64::MAX),
        ] {
            let text = v.to_string();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.to_string(), text);
            match (&v, &back) {
                (Json::UInt(a), other) => assert_eq!(other.as_u64(), Some(*a)),
                (Json::Int(a), Json::Int(b)) => assert_eq!(a, b),
                _ => panic!("integer changed representation: {v:?} -> {back:?}"),
            }
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", Json::Str("cycle_equiv".into())),
            ("count", Json::UInt(3)),
            (
                "children",
                Json::Arr(vec![Json::obj([("name", Json::Str("dfs".into()))])]),
            ),
            ("ratio", Json::Float(0.5)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn find_object_with_searches_depth_first() {
        let v = Json::obj([(
            "spans",
            Json::obj([
                ("name", Json::Str("root".into())),
                (
                    "children",
                    Json::Arr(vec![Json::obj([("name", Json::Str("cycle_equiv".into()))])]),
                ),
            ]),
        )]);
        let hit = v.find_object_with("name", "cycle_equiv").unwrap();
        assert_eq!(hit.get("name"), Some(&Json::Str("cycle_equiv".into())));
        assert!(v.find_object_with("name", "missing").is_none());
    }

    // ---- Oracles: the char-at-a-time scan and escape loops the run
    // copies replaced, kept verbatim (plus the low-surrogate range check
    // both now make) to compare the fast paths against.

    impl Parser<'_> {
        fn string_oracle(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let rest = &self.bytes[self.pos..];
                let Some(&b) = rest.first() else {
                    return Err(self.err("unterminated string"));
                };
                match b {
                    b'"' => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    b'\\' => {
                        self.pos += 1;
                        let Some(&esc) = self.bytes.get(self.pos) else {
                            return Err(self.err("unterminated escape"));
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{08}'),
                            b'f' => out.push('\u{0C}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("non-ASCII \\u escape"))?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                // Surrogate pairs.
                                let c = if (0xD800..0xDC00).contains(&cp) {
                                    if self.bytes.get(self.pos) == Some(&b'\\')
                                        && self.bytes.get(self.pos + 1) == Some(&b'u')
                                    {
                                        let lo_hex = self
                                            .bytes
                                            .get(self.pos + 2..self.pos + 6)
                                            .ok_or_else(|| self.err("truncated surrogate"))?;
                                        let lo_hex = std::str::from_utf8(lo_hex)
                                            .map_err(|_| self.err("non-ASCII surrogate"))?;
                                        let lo = u32::from_str_radix(lo_hex, 16)
                                            .map_err(|_| self.err("bad surrogate"))?;
                                        self.pos += 6;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(self.err("invalid surrogate pair"));
                                        }
                                        let combined =
                                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(combined)
                                            .ok_or_else(|| self.err("invalid surrogate pair"))?
                                    } else {
                                        return Err(self.err("lone surrogate"));
                                    }
                                } else {
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid codepoint"))?
                                };
                                out.push(c);
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    _ => {
                        // Consume one UTF-8 scalar.
                        let s = std::str::from_utf8(rest)
                            .map_err(|_| self.err("invalid UTF-8 in string"))?;
                        let c = s.chars().next().unwrap();
                        if (c as u32) < 0x20 {
                            return Err(self.err("raw control character in string"));
                        }
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn write_escaped_oracle(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        f.write_str("\"")?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                '\u{08}' => f.write_str("\\b")?,
                '\u{0C}' => f.write_str("\\f")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_fmt(format_args!("{c}"))?,
            }
        }
        f.write_str("\"")
    }

    struct Oracle<'a>(&'a str);

    impl fmt::Display for Oracle<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write_escaped_oracle(f, self.0)
        }
    }

    /// Scans the string literal at the start of `text`, by the fast path
    /// or by the oracle: the result plus where the scan stopped.
    fn scan(text: &str, oracle: bool) -> (Result<String, ParseError>, usize) {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let result = if oracle {
            p.string_oracle()
        } else {
            p.string()
        };
        (result, p.pos)
    }

    /// Whether the fast paths agree with the oracles on `s` rendered as
    /// a literal and on `literal` scanned as one.
    fn agrees(s: &str, literal: &str) -> bool {
        Json::Str(s.to_string()).to_string() == Oracle(s).to_string()
            && scan(literal, false) == scan(literal, true)
    }

    /// Runs `f` with every run copy cut one char short.
    fn with_short_runs<T>(f: impl FnOnce() -> T) -> T {
        SHORT_RUNS.with(|m| m.set(true));
        let out = f();
        SHORT_RUNS.with(|m| m.set(false));
        out
    }

    /// Chars that stress the renderer: escapes, every control byte,
    /// multi-byte UTF-8 of each width, and plain ASCII.
    fn render_char() -> impl Strategy<Value = char> {
        let from = |c: u32| char::from_u32(c).unwrap_or('\u{FFFD}');
        prop_oneof![
            (0x20u32..0x7f).prop_map(from),
            (0u32..0x20).prop_map(from),
            proptest::sample::select(vec!['"', '\\', '/', '\u{7f}', '\u{2028}']),
            (0x80u32..0x800).prop_map(from),
            (0x800u32..0xD800).prop_map(from),
            (0x10000u32..0x110000).prop_map(from),
        ]
    }

    /// Pieces of a JSON-ish string body: any char the renderer is
    /// tested on (raw control characters included), or one of the
    /// escapes below, separated by `|`: each valid one, surrogate pairs,
    /// lone and mismatched surrogates, truncated and malformed `\u`
    /// escapes, an unknown escape, a lone backslash and the closing
    /// quote.
    fn body_piece() -> impl Strategy<Value = String> {
        const ESCAPES: &str = concat!(
            r#"\"|\\|\/|\n|\r|\t|\b|\f|\u0041|\u00e9|\u20AC|\uD83D\uDE00|\uDBFF\uDFFF|"#,
            r#"\uD83D|\uDE00|\uD83Dx|\uD83D\u0041|\uD83D\uD83D|\uD83D\u12|\uD83D\uZZZZ|"#,
            r#"\uD83D\|\u12|\u+041|\uZZZZ|\u00é|\x|\|""#,
        );
        prop_oneof![
            proptest::sample::select(ESCAPES.split('|').map(String::from).collect()),
            render_char().prop_map(String::from),
        ]
    }

    proptest! {
        #[test]
        fn rendering_matches_the_char_at_a_time_oracle(
            chars in proptest::collection::vec(render_char(), 0..48),
        ) {
            let s: String = chars.into_iter().collect();
            let fast = Json::Str(s.clone()).to_string();
            prop_assert_eq!(&fast, &Oracle(&s).to_string());
            prop_assert_eq!(Json::parse(&fast).unwrap(), Json::Str(s));
        }

        #[test]
        fn scanning_matches_the_char_at_a_time_oracle(
            pieces in proptest::collection::vec(body_piece(), 0..24),
            closed in 0u8..3,
        ) {
            let mut literal = format!("\"{}", pieces.concat());
            if closed > 0 {
                literal.push_str("\", 1]");
            }
            prop_assert_eq!(scan(&literal, false), scan(&literal, true), "{literal:?}");
        }
    }

    #[test]
    fn every_control_byte_renders_and_scans_like_the_oracle() {
        for b in 0u8..0x20 {
            let c = char::from(b);
            let s = format!("é{c}\u{1F600}{c}\"\\{c}x");
            assert!(agrees(&s, &Json::Str(s.clone()).to_string()), "{b:#04x}");
            let raw = format!("\"ab{c}\"");
            assert!(agrees("", &raw), "raw {b:#04x}");
        }
    }

    #[test]
    fn a_short_run_copy_fails_the_oracle_comparison() {
        let cases = [
            ("plain text", "\"plain text\""),
            ("é then \" quote", "\"é then \\\" quote\""),
            ("\u{1F600}\n", "\"\u{1F600}\\n\""),
        ];
        assert!(cases.iter().all(|(s, lit)| agrees(s, lit)));
        for (s, literal) in cases {
            let rendered = with_short_runs(|| Json::Str(s.to_string()).to_string());
            assert_ne!(rendered, Oracle(s).to_string(), "render of {s:?}");
            let scanned = with_short_runs(|| scan(literal, false));
            assert_ne!(scanned, scan(literal, true), "scan of {literal:?}");
        }
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        for text in [
            "\"\\uD83D\\u0041\"",
            "\"\\uD83D\\uD83D\"",
            "\"\\uD83D\\u+C00\"",
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(
                (err.at, err.message.as_str()),
                (13, "invalid surrogate pair"),
                "{text}"
            );
        }
        assert_eq!(
            Json::parse("\"\\uD83D\\uDE00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
    }
}
