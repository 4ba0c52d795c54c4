//! A minimal flat-JSON-object reader for the wire protocol and the
//! journal's JSONL sink — no serialization dependency, by design.
//!
//! Handles exactly the subset both sides of the protocol emit: one object
//! per line whose values are strings (with standard escapes), finite
//! numbers, booleans, or null. Nested objects and arrays are rejected;
//! nothing in the protocol or the sink produces them.

use std::collections::BTreeMap;

/// A scalar JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A number (parsed as `f64`; integers up to 2^53 roundtrip exactly).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(x) if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// A scalar JSON value borrowed from the line being scanned (see
/// [`scan_object`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    /// A string, with escapes decoded.
    Str(&'a str),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Scalar<'_> {
    fn to_value(self) -> Value {
        match self {
            Scalar::Str(s) => Value::Str(s.to_string()),
            Scalar::Num(x) => Value::Num(x),
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Null => Value::Null,
        }
    }
}

/// Parses one flat JSON object into a key → value map.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax problem.
pub fn parse_object(input: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut map = BTreeMap::new();
    scan_object(input, |key, value| {
        map.insert(key.to_string(), value.to_value());
    })?;
    Ok(map)
}

/// Checks one flat JSON object against the grammar of [`parse_object`] and
/// hands each member to `member` in input order, without building a map.
/// Keys and string values are decoded into two buffers reused across
/// members.
///
/// # Errors
///
/// The same descriptions [`parse_object`] returns.
pub fn scan_object(input: &str, mut member: impl FnMut(&str, Scalar<'_>)) -> Result<(), String> {
    let mut p = Parser {
        chars: input.char_indices().peekable(),
        input,
    };
    let (mut key, mut text) = (String::new(), String::new());
    p.skip_ws();
    p.expect('{')?;
    p.skip_ws();
    if p.eat('}') {
        p.skip_ws();
        return p.finish();
    }
    loop {
        p.skip_ws();
        key.clear();
        p.string(&mut key)?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        text.clear();
        member(&key, p.value(&mut text)?);
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect('}')?;
        p.skip_ws();
        return p.finish();
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    input: &'a str,
}

impl Parser<'_> {
    fn finish(&mut self) -> Result<(), String> {
        match self.chars.next() {
            None => Ok(()),
            Some((i, c)) => Err(format!("trailing `{c}` at byte {i}")),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected `{want}` at byte {i}, found `{c}`")),
            None => Err(format!("expected `{want}`, found end of input")),
        }
    }

    fn string(&mut self, out: &mut String) -> Result<(), String> {
        self.expect('"')?;
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(()),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (j, c) = self
                                .chars
                                .next()
                                .ok_or("truncated \\u escape".to_string())?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or(format!("bad \\u digit `{c}` at byte {j}"))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some((j, c)) => return Err(format!("bad escape `\\{c}` at byte {j}")),
                    None => return Err(format!("unterminated escape at byte {i}")),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn value<'b>(&mut self, text: &'b mut String) -> Result<Scalar<'b>, String> {
        match self.chars.peek() {
            Some((_, '"')) => {
                self.string(text)?;
                Ok(Scalar::Str(text))
            }
            Some((_, 't')) => self.literal("true", Scalar::Bool(true)),
            Some((_, 'f')) => self.literal("false", Scalar::Bool(false)),
            Some((_, 'n')) => self.literal("null", Scalar::Null),
            Some((i, c)) if *c == '-' || c.is_ascii_digit() => {
                let start = *i;
                let mut end = self.input.len();
                while let Some((j, c)) = self.chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        self.chars.next();
                    } else {
                        end = *j;
                        break;
                    }
                }
                let digits = &self.input[start..end];
                digits
                    .parse()
                    .map(Scalar::Num)
                    .map_err(|_| format!("bad number `{digits}`"))
            }
            Some((i, c)) => Err(format!("unsupported value starting `{c}` at byte {i}")),
            None => Err("expected a value, found end of input".to_string()),
        }
    }

    fn literal<'b>(&mut self, word: &str, value: Scalar<'b>) -> Result<Scalar<'b>, String> {
        for want in word.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                _ => return Err(format!("bad literal (expected `{word}`)")),
            }
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_subset() {
        let m = parse_object(
            r#"{"op": "provision", "customer": 3, "stateless": true, "note": "a\"b", "x": null, "pi": -1.5e2}"#,
        )
        .unwrap();
        assert_eq!(m["op"].as_str(), Some("provision"));
        assert_eq!(m["customer"].as_u64(), Some(3));
        assert_eq!(m["stateless"].as_bool(), Some(true));
        assert_eq!(m["note"].as_str(), Some("a\"b"));
        assert_eq!(m["x"], Value::Null);
        assert_eq!(m["pi"].as_f64(), Some(-150.0));
        assert_eq!(m["pi"].as_u64(), None);
    }

    #[test]
    fn parses_empty_and_rejects_malformed() {
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a": }"#).is_err());
        assert!(parse_object(r#"{"a": 1} extra"#).is_err());
        assert!(parse_object(r#"{"a": [1]}"#).is_err());
        assert!(parse_object(r#"{"a": {"b": 1}}"#).is_err());
    }

    #[test]
    fn scan_sees_members_in_order_with_parse_errors() {
        let mut seen = Vec::new();
        scan_object(
            r#"{"kind": "command", "n": 2, "ok": false, "x": null}"#,
            |k, v| {
                seen.push(format!("{k}={v:?}"));
            },
        )
        .unwrap();
        assert_eq!(
            seen,
            [
                "kind=Str(\"command\")",
                "n=Num(2.0)",
                "ok=Bool(false)",
                "x=Null"
            ]
        );
        for bad in [
            "",
            "{",
            r#"{"a": }"#,
            r#"{"a": 1} extra"#,
            r#"{"a": [1]}"#,
            r#"{"a": 1e}"#,
        ] {
            assert_eq!(
                scan_object(bad, |_, _| {}).unwrap_err(),
                parse_object(bad).unwrap_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parses_a_journal_sink_line() {
        let line = r#"{"t": 3600.000000, "subsystem": "controller", "kind": "command", "seq": 2, "cmd": "provision", "a": 0, "b": 1, "c": 0}"#;
        let m = parse_object(line).unwrap();
        assert_eq!(m["kind"].as_str(), Some("command"));
        assert_eq!(m["seq"].as_u64(), Some(2));
        assert_eq!(m["t"].as_f64(), Some(3600.0));
    }
}
