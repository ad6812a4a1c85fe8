//! Minimal JSON value model, renderer, and recursive-descent parser.
//!
//! The workspace is offline (no serde); observability events need a
//! machine-readable wire format that round-trips through plain files.
//! This module implements the small JSON subset the event schema uses:
//! objects preserve insertion order (they are association lists, not
//! maps) so rendered output is byte-deterministic.

use std::fmt::Write as _;

/// A parsed or constructed JSON value.
///
/// Numbers are `f64` (like JavaScript); integral values within the
/// exactly-representable range render without a fractional part so
/// counters and timestamps round-trip as integers. Non-finite numbers
/// render as `null` — they never appear in well-formed events.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an order-preserving association list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as a single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Largest integer magnitude `f64` represents exactly (2^53).
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn render_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INT {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects that [`parse`] accepts. The
/// parser recurses once per level, and `m3d-serve` parses each frame on a
/// connection thread with a 256 KiB stack: a bare parse on such a stack
/// overflows past about 200 levels in a debug build and 1,000 in a
/// release build. The deepest document the workspace writes nests 5.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document, rejecting trailing garbage and
/// arrays or objects nested more than 64 deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_str(text, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'[') => parse_arr(text, pos, depth + 1),
        Some(b'{') => parse_obj(text, pos, depth + 1),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("malformed number `{text}` at byte {start}"))
}

/// Four hex digits at `bytes[at..at + 4]`, as in a `\uXXXX` escape.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
}

fn parse_str(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run of plain characters up to the next delimiter in one
        // step. Both delimiters are ASCII, so the run ends on a character
        // boundary of `text`, which is valid UTF-8 already.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: JSON encodes astral-plane
                            // characters as a `\uD8xx\uDCxx` pair.
                            if bytes.get(*pos + 1..*pos + 3) == Some(br"\u") {
                                let lo = hex4(bytes, *pos + 3)?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let code = 0x10000 + (((hi - 0xD800) << 10) | (lo - 0xDC00));
                                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                    *pos += 6;
                                } else {
                                    out.push('\u{fffd}'); // unpaired high surrogate
                                }
                            } else {
                                out.push('\u{fffd}');
                            }
                        } else {
                            // Lone low surrogates also fall to U+FFFD here.
                            out.push(char::from_u32(hi).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_arr(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_integral_numbers_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn round_trips_nested_values() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a \"quoted\"\npath".into())),
            ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("ok".into(), Json::Bool(true)),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn decodes_surrogate_pairs() {
        // U+1F600 as the \uXXXX\uXXXX pair JSON writers emit for astral chars.
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // Mixed with surrounding text.
        assert_eq!(
            parse(r#""a\uD83D\uDE00b""#).unwrap(),
            Json::Str("a\u{1F600}b".into())
        );
        // Literal astral characters round-trip through render + parse.
        let v = Json::Str("net \u{1F600} \u{10FFFF}".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        assert_eq!(parse(r#""\uD800""#).unwrap(), Json::Str("\u{fffd}".into()));
        assert_eq!(
            parse(r#""\uDC00x""#).unwrap(),
            Json::Str("\u{fffd}x".into())
        );
        // High surrogate followed by a non-surrogate escape: both survive.
        assert_eq!(
            parse(r#""\uD800A""#).unwrap(),
            Json::Str("\u{fffd}A".into())
        );
    }

    #[test]
    fn preserves_object_key_order() {
        let text = r#"{"z":1,"a":2}"#;
        assert_eq!(parse(text).unwrap().render(), text);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // `depth` levels, the innermost one empty.
        let nest = |depth: usize, open: &str, empty: &str, close: &str| {
            format!(
                "{}{empty}{}",
                open.repeat(depth - 1),
                close.repeat(depth - 1)
            )
        };
        let arrays = nest(MAX_DEPTH, "[", "[]", "]");
        assert_eq!(parse(&arrays).map(|v| v.render()), Ok(arrays));
        assert!(parse(&nest(MAX_DEPTH, "{\"k\":", "{}", "}")).is_ok());
        assert!(parse(&nest(MAX_DEPTH, "[", "{\"k\":1}", "]")).is_ok());

        let too_deep = format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}");
        assert_eq!(parse(&nest(MAX_DEPTH + 1, "[", "[]", "]")), Err(too_deep));
        let mixed = nest(MAX_DEPTH, "[", "{\"k\":[]}", "]");
        assert!(parse(&mixed).unwrap_err().starts_with("nesting deeper"));
        // A run of `[` far past the cap fails at the cap, not the stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn plain_runs_end_exactly_at_every_escape_and_multibyte_character() {
        let escapes = [
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\/", "/"),
            (r"\n", "\n"),
            (r"\t", "\t"),
            (r"\r", "\r"),
            (r"\b", "\u{8}"),
            (r"\f", "\u{c}"),
            (r"\u00e9", "é"),
            (r"\uD83D\uDE00", "\u{1F600}"),
            (r"\uDC00", "\u{fffd}"),
        ];
        // Empty, ASCII, and runs that start or end with a 2-, 3- or 4-byte
        // character.
        let runs = ["", "ab", "é", "€x", "x\u{1F600}", "\u{10FFFF}é€"];
        for (escape, decoded) in escapes {
            for before in runs {
                for after in runs {
                    let text = format!("\"{before}{escape}{after}{escape}{before}\"");
                    let want = format!("{before}{decoded}{after}{decoded}{before}");
                    assert_eq!(parse(&text), Ok(Json::Str(want)), "{text}");
                }
            }
        }
        // A run may reach the end of the input only in an unterminated
        // string.
        assert!(parse("\"é€\u{1F600}").is_err());
        assert!(parse("\"ab\\").is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""aA\n\t\\""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\\"));
    }
}
