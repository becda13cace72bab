use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A value of the grid content language.
///
/// Collected management data is heterogeneous (counters, gauges, strings,
/// tables); the paper mandates a *common representation* so every grid can
/// interpret what the previous one produced (§3.1). `Value` is that
/// representation: a small, self-describing tree that serializes to FIPA
/// style s-expressions via [`Display`](fmt::Display) and parses back with
/// [`FromStr`].
///
/// Strings are shared, not copied: a [`Str`](Value::Str) holds an
/// `Arc<str>`, so encoding a concept whose fields are `Arc<str>` and
/// decoding it again bumps reference counts instead of allocating. Map
/// keys and symbols are `Cow<'static, str>`, so the fixed keys and
/// concept tags an encoder writes borrow their literals; text parsed
/// from the wire owns its keys.
///
/// # Examples
///
/// ```
/// use agentgrid_acl::Value;
///
/// let v = Value::list([
///     Value::symbol("sample"),
///     Value::from(42),
///     Value::from("eth0"),
/// ]);
/// let text = v.to_string();
/// assert_eq!(text, r#"(sample 42 "eth0")"#);
/// assert_eq!(text.parse::<Value>().unwrap(), v);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Value {
    /// The unit/empty value, printed as `nil`.
    #[default]
    Nil,
    /// A boolean, printed as `true` / `false`.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float, printed with enough digits to round-trip.
    Float(f64),
    /// A bare symbol (identifier).
    Symbol(Cow<'static, str>),
    /// A quoted string, shared between the values that hold it.
    Str(Arc<str>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A keyword map, printed as `(map :key value ...)` with sorted keys.
    Map(BTreeMap<Cow<'static, str>, Value>),
}

impl Value {
    /// Creates a symbol value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains whitespace, parentheses,
    /// quotes or a leading `:` — such symbols could not be re-parsed.
    pub fn symbol(name: impl Into<Cow<'static, str>>) -> Value {
        let name = name.into();
        assert!(
            is_valid_symbol(&name),
            "invalid symbol `{name}`: symbols must be non-empty and free of \
             whitespace, parentheses, quotes and a leading colon"
        );
        Value::Symbol(name)
    }

    /// Creates a list value from an iterator of values.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Creates a map value from `(key, value)` pairs.
    pub fn map<K: Into<Cow<'static, str>>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float if this is a `Float` (or the exact value of an `Int`).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string contents if this is a `Str` or `Symbol`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Symbol(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the shared string if this is a `Str`: cloning it bumps a
    /// reference count instead of copying the text.
    pub fn as_arc_str(&self) -> Option<&Arc<str>> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the items if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the map if this is a `Map`.
    pub fn as_map(&self) -> Option<&BTreeMap<Cow<'static, str>, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` if this is a `Map`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Total number of nodes in this value tree (useful as a size metric).
    pub fn node_count(&self) -> usize {
        match self {
            Value::List(items) => 1 + items.iter().map(Value::node_count).sum::<usize>(),
            Value::Map(m) => 1 + m.values().map(Value::node_count).sum::<usize>(),
            _ => 1,
        }
    }
}

fn is_valid_symbol(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with(':')
        && s != "nil"
        && s != "true"
        && s != "false"
        && s != "map"
        && !s.chars().next().unwrap().is_ascii_digit()
        && !s.starts_with('-')
        && s.chars()
            .all(|c| !c.is_whitespace() && !matches!(c, '(' | ')' | '"' | '\\'))
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v.into())
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

impl From<&Arc<str>> for Value {
    fn from(v: &Arc<str>) -> Self {
        Value::Str(Arc::clone(v))
    }
}

impl<V: Into<Value>> FromIterator<V> for Value {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Value::List(iter.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => f.write_str("nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                // Always keep a decimal point or exponent so the parser can
                // distinguish floats from ints on the way back.
                let s = format!("{x}");
                if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
            Value::Symbol(s) => f.write_str(s),
            Value::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        _ => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Value::List(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
            Value::Map(m) => {
                f.write_str("(map")?;
                for (k, v) in m {
                    write!(f, " :{k} {v}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Error returned when parsing a [`Value`] from s-expression text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseValueError {
    message: String,
    offset: usize,
}

impl ParseValueError {
    /// Byte offset in the input where parsing failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseValueError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseValueError {
        ParseValueError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseValueError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some('(') => self.parse_list(),
            Some('"') => self.parse_string(),
            Some(')') => Err(self.error("unexpected `)`")),
            Some(_) => self.parse_atom(),
        }
    }

    fn parse_list(&mut self) -> Result<Value, ParseValueError> {
        self.bump(); // consume '('
        self.skip_ws();
        // A `(map :k v ...)` form parses into Value::Map.
        if self.input[self.pos..].starts_with("map")
            && matches!(
                self.input[self.pos + 3..].chars().next(),
                Some(c) if c.is_whitespace() || c == ')'
            )
        {
            self.pos += 3;
            return self.parse_map_body();
        }
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.error("unterminated list")),
                Some(')') => {
                    self.bump();
                    return Ok(Value::List(items));
                }
                Some(_) => items.push(self.parse_value()?),
            }
        }
    }

    fn parse_map_body(&mut self) -> Result<Value, ParseValueError> {
        let mut map = BTreeMap::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.error("unterminated map")),
                Some(')') => {
                    self.bump();
                    return Ok(Value::Map(map));
                }
                Some(':') => {
                    self.bump();
                    let key = self.take_symbol_text()?;
                    let value = self.parse_value()?;
                    map.insert(Cow::Owned(key), value);
                }
                Some(c) => return Err(self.error(format!("expected `:key`, found `{c}`"))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<Value, ParseValueError> {
        self.bump(); // consume '"'
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some('"') => return Ok(Value::Str(out.into())),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some(c) => return Err(self.error(format!("invalid escape `\\{c}`"))),
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn take_symbol_text(&mut self) -> Result<String, ParseValueError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_whitespace() || matches!(c, '(' | ')' | '"') {
                break;
            }
            self.bump();
        }
        if self.pos == start {
            return Err(self.error("expected atom"));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    fn parse_atom(&mut self) -> Result<Value, ParseValueError> {
        let text = self.take_symbol_text()?;
        Ok(match text.as_str() {
            "nil" => Value::Nil,
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => {
                if let Ok(i) = text.parse::<i64>() {
                    Value::Int(i)
                } else if looks_numeric(&text) {
                    match text.parse::<f64>() {
                        Ok(x) => Value::Float(x),
                        Err(_) => {
                            return Err(self.error(format!("invalid number `{text}`")));
                        }
                    }
                } else {
                    Value::Symbol(Cow::Owned(text))
                }
            }
        })
    }
}

fn looks_numeric(s: &str) -> bool {
    let first = s.chars().next().unwrap_or(' ');
    first.is_ascii_digit() || first == '-' || first == '+'
}

impl FromStr for Value {
    type Err = ParseValueError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Parser { input: s, pos: 0 };
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.error("trailing input after value"));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Nil,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(3.25),
            Value::symbol("cpu-load"),
            Value::from("hello \"world\"\nline"),
        ] {
            assert_eq!(v.to_string().parse::<Value>().unwrap(), v, "{v}");
        }
    }

    #[test]
    fn float_without_fraction_round_trips_as_float() {
        let v = Value::Float(2.0);
        let s = v.to_string();
        assert_eq!(s, "2.0");
        assert_eq!(s.parse::<Value>().unwrap(), v);
    }

    #[test]
    fn nested_list_round_trips() {
        let v = Value::list([
            Value::symbol("batch"),
            Value::list([Value::Int(1), Value::Int(2)]),
            Value::from("x"),
        ]);
        assert_eq!(v.to_string().parse::<Value>().unwrap(), v);
    }

    #[test]
    fn map_round_trips_with_sorted_keys() {
        let v = Value::map([("zeta", Value::Int(1)), ("alpha", Value::from("a"))]);
        assert_eq!(v.to_string(), r#"(map :alpha "a" :zeta 1)"#);
        assert_eq!(v.to_string().parse::<Value>().unwrap(), v);
    }

    #[test]
    fn empty_map_and_list_parse() {
        assert_eq!("()".parse::<Value>().unwrap(), Value::List(vec![]));
        assert_eq!(
            "(map)".parse::<Value>().unwrap(),
            Value::Map(BTreeMap::new())
        );
    }

    #[test]
    fn map_symbol_prefix_is_not_a_map() {
        // `mapper` begins with "map" but must parse as a symbol in a list.
        let v = "(mapper 1)".parse::<Value>().unwrap();
        assert_eq!(v, Value::list([Value::symbol("mapper"), Value::Int(1)]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "(",
            "(a",
            "\"oops",
            ") ",
            "(map :k)",
            "1 2",
            "(map k 1)",
        ] {
            assert!(bad.parse::<Value>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let v = Value::map([("n", Value::Int(7))]);
        assert_eq!(v.get("n").and_then(Value::as_int), Some(7));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert!(Value::from(true).as_bool().unwrap());
    }

    #[test]
    fn strings_are_shared_and_static_text_is_borrowed() {
        let name: Arc<str> = Arc::from("router-1");
        let v = Value::map([("device", Value::from(&name))]);
        let held = v.get("device").and_then(Value::as_arc_str).unwrap();
        assert!(Arc::ptr_eq(held, &name));
        assert_eq!(Value::symbol("sample").as_arc_str(), None);
        let Value::Map(map) = &v else { unreachable!() };
        assert!(map.keys().all(|k| matches!(k, Cow::Borrowed(_))));
        let Value::Symbol(tag) = Value::symbol("sample") else {
            unreachable!()
        };
        assert!(matches!(tag, Cow::Borrowed("sample")));
    }

    #[test]
    fn node_count_counts_tree_nodes() {
        let v = Value::list([Value::Int(1), Value::list([Value::Int(2), Value::Int(3)])]);
        assert_eq!(v.node_count(), 5);
    }

    #[test]
    #[should_panic(expected = "invalid symbol")]
    fn symbol_rejects_whitespace() {
        Value::symbol("two words");
    }
}
