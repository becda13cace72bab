use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A field value inside a [`Fact`].
///
/// A string is shared, not copied: cloning a `Str` term (into a second
/// fact, a binding or the working memory's index) bumps a reference
/// count.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::Term;
/// assert!(Term::from(3.0) > Term::from(2.5));
/// assert_eq!(Term::from("up").as_str(), Some("up"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// A numeric value (all numbers are `f64`).
    Num(f64),
    /// A string value.
    Str(Arc<str>),
    /// A boolean value.
    Bool(bool),
}

impl Term {
    /// Returns the number if this is a `Num`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Term::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Term::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Term::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl PartialOrd for Term {
    /// Numbers order numerically, strings lexicographically, booleans
    /// false-before-true; mixed kinds are unordered.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Term::Num(a), Term::Num(b)) => a.partial_cmp(b),
            (Term::Str(a), Term::Str(b)) => Some(a.cmp(b)),
            (Term::Bool(a), Term::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Num(x) => write!(f, "{x}"),
            Term::Str(s) => write!(f, "{s}"),
            Term::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<f64> for Term {
    fn from(x: f64) -> Self {
        Term::Num(x)
    }
}

impl From<i64> for Term {
    fn from(x: i64) -> Self {
        Term::Num(x as f64)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Self {
        Term::Str(s.into())
    }
}

impl From<String> for Term {
    fn from(s: String) -> Self {
        Term::Str(s.into())
    }
}

impl From<Arc<str>> for Term {
    fn from(s: Arc<str>) -> Self {
        Term::Str(s)
    }
}

impl From<bool> for Term {
    fn from(b: bool) -> Self {
        Term::Bool(b)
    }
}

/// Identifier of a fact inside a [`WorkingMemory`].
///
/// Ids are assigned in insertion order, which the engine uses as recency
/// for conflict resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FactId(pub(crate) u64);

impl FactId {
    /// The raw id value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A typed tuple in working memory: a *kind* plus named fields.
///
/// The kind and the field names are `Cow<'static, str>`, so the literal
/// names facts are usually built with cost no allocation, and the fields
/// live in one name-sorted vector rather than a map.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::Fact;
/// let f = Fact::new("obs")
///     .with("device", "sw-1")
///     .with("value", 42.0);
/// assert_eq!(f.kind(), "obs");
/// assert_eq!(f.field("value").unwrap().as_num(), Some(42.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fact {
    kind: Cow<'static, str>,
    /// Fields in ascending name order, names unique.
    fields: Vec<(Cow<'static, str>, Term)>,
}

impl Fact {
    /// Creates an empty fact of the given kind.
    pub fn new(kind: impl Into<Cow<'static, str>>) -> Self {
        Fact {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Adds or replaces a field (builder style).
    pub fn with(mut self, name: impl Into<Cow<'static, str>>, value: impl Into<Term>) -> Self {
        let (name, value) = (name.into(), value.into());
        // Facts are usually built in name order: appending is the fast path.
        match self.fields.last() {
            Some((last, _)) if *last >= name => {
                match self.fields.binary_search_by(|(n, _)| n.as_ref().cmp(&name)) {
                    Ok(at) => self.fields[at].1 = value,
                    Err(at) => self.fields.insert(at, (name, value)),
                }
            }
            _ => self.fields.push((name, value)),
        }
        self
    }

    /// The fact kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Looks up a field.
    pub fn field(&self, name: &str) -> Option<&Term> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| value)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.fields.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the fact has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, ")")
    }
}

/// Index key for a [`Term`] value inside the alpha index.
///
/// `Term` itself is only `PartialOrd`/`PartialEq` (floats), so the index
/// stores a totally ordered encoding. Numbers use the IEEE-754 total-order
/// bit trick, with `-0.0` normalised to `0.0` so that the bucket for a key
/// is always a *superset* of the facts whose field compares `==` to the
/// probed value (`Pattern::matches` re-checks equality on candidates).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TermKey {
    Bool(bool),
    Num(u64),
    Str(Arc<str>),
}

impl From<&Term> for TermKey {
    fn from(term: &Term) -> Self {
        match term {
            Term::Num(x) => {
                let x = if *x == 0.0 { 0.0 } else { *x };
                let bits = x.to_bits();
                let ordered = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | (1 << 63)
                };
                TermKey::Num(ordered)
            }
            Term::Str(s) => TermKey::Str(Arc::clone(s)),
            Term::Bool(b) => TermKey::Bool(*b),
        }
    }
}

/// The fact store the engine reasons over.
///
/// Facts are never mutated in place: rules assert new facts and retract
/// old ones, which keeps activation bookkeeping sound.
///
/// Facts sit in a slot vector indexed by id (ids are assigned in
/// insertion order and never reused). Two alpha indexes are maintained
/// alongside: a per-kind id list (so `of_kind` never scans unrelated
/// facts) and a `(kind, field, value)` index that `Pattern::match_all`
/// probes for literal and already-bound fields. Every id list is in
/// ascending id order.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{Fact, WorkingMemory};
/// let mut wm = WorkingMemory::new();
/// let id = wm.insert(Fact::new("obs").with("value", 1.0));
/// assert_eq!(wm.len(), 1);
/// wm.retract(id);
/// assert!(wm.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorkingMemory {
    /// Slot `i` holds the fact with id `i` until it is retracted.
    facts: Vec<Option<Fact>>,
    len: usize,
    by_kind: BTreeMap<String, Vec<FactId>>,
    by_field: BTreeMap<String, BTreeMap<String, BTreeMap<TermKey, Vec<FactId>>>>,
}

/// Removes `id` from an ascending id list.
fn remove_id(ids: &mut Vec<FactId>, id: FactId) {
    if let Ok(at) = ids.binary_search(&id) {
        ids.remove(at);
    }
}

impl WorkingMemory {
    /// Creates an empty working memory.
    pub fn new() -> Self {
        WorkingMemory::default()
    }

    /// Inserts a fact, returning its id.
    ///
    /// Index keys are looked up before they are copied: only the first
    /// fact of a kind, or of a field name within a kind, allocates its
    /// key, and a string value's key shares the fact's string.
    pub fn insert(&mut self, fact: Fact) -> FactId {
        let id = FactId(self.facts.len() as u64);
        let kind: &str = &fact.kind;
        match self.by_kind.get_mut(kind) {
            Some(ids) => ids.push(id),
            None => {
                self.by_kind.insert(kind.to_owned(), vec![id]);
            }
        }
        let kind_index = match self.by_field.get_mut(kind) {
            Some(index) => index,
            None => self.by_field.entry(kind.to_owned()).or_default(),
        };
        for (name, value) in &fact.fields {
            let values = match kind_index.get_mut(name.as_ref()) {
                Some(values) => values,
                None => kind_index.entry(name.to_string()).or_default(),
            };
            values.entry(TermKey::from(value)).or_default().push(id);
        }
        self.facts.push(Some(fact));
        self.len += 1;
        id
    }

    /// Removes a fact. Returns the fact if it was present.
    pub fn retract(&mut self, id: FactId) -> Option<Fact> {
        let fact = self.facts.get_mut(id.0 as usize)?.take()?;
        self.len -= 1;
        if let Some(ids) = self.by_kind.get_mut(fact.kind()) {
            remove_id(ids, id);
        }
        if let Some(kind_index) = self.by_field.get_mut(fact.kind()) {
            for (name, value) in fact.fields() {
                if let Some(values) = kind_index.get_mut(name) {
                    let key = TermKey::from(value);
                    if let Some(ids) = values.get_mut(&key) {
                        remove_id(ids, id);
                        if ids.is_empty() {
                            values.remove(&key);
                        }
                    }
                }
            }
        }
        Some(fact)
    }

    /// Looks up a fact by id.
    pub fn get(&self, id: FactId) -> Option<&Fact> {
        self.facts.get(id.0 as usize)?.as_ref()
    }

    /// Iterates over `(id, fact)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts
            .iter()
            .enumerate()
            .filter_map(|(i, fact)| Some((FactId(i as u64), fact.as_ref()?)))
    }

    /// Iterates over the facts of one kind, in insertion order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = (FactId, &'a Fact)> + 'a {
        self.ids_of_kind(kind)
            .into_iter()
            .flatten()
            .map(|id| (*id, self.get(*id).expect("indexed fact exists")))
    }

    /// Id list for a kind (alpha index, level 0).
    pub(crate) fn ids_of_kind(&self, kind: &str) -> Option<&[FactId]> {
        self.by_kind.get(kind).map(Vec::as_slice)
    }

    /// Id list for facts of `kind` whose field `name` indexes equal to
    /// `value` (alpha index, level 1). `None` means no candidate exists;
    /// callers must still confirm with [`Fact::field`] equality.
    pub(crate) fn ids_by_field(&self, kind: &str, name: &str, value: &Term) -> Option<&[FactId]> {
        self.by_field
            .get(kind)?
            .get(name)?
            .get(&TermKey::from(value))
            .map(Vec::as_slice)
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_conversions_and_accessors() {
        assert_eq!(Term::from(2i64).as_num(), Some(2.0));
        assert_eq!(Term::from("x").as_str(), Some("x"));
        assert_eq!(Term::from(true).as_bool(), Some(true));
        assert_eq!(Term::from(1.0).as_str(), None);
    }

    #[test]
    fn term_ordering_within_kind_only() {
        assert!(Term::from(1.0) < Term::from(2.0));
        assert!(Term::from("a") < Term::from("b"));
        assert!(Term::from(false) < Term::from(true));
        assert_eq!(Term::from(1.0).partial_cmp(&Term::from("a")), None);
    }

    #[test]
    fn fact_builder_and_display() {
        let f = Fact::new("obs").with("b", 2.0).with("a", "x");
        assert_eq!(f.len(), 2);
        assert_eq!(f.to_string(), "obs(a: x, b: 2)");
    }

    #[test]
    fn memory_assigns_monotonic_ids() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("x"));
        let b = wm.insert(Fact::new("y"));
        assert!(a < b);
        assert_eq!(wm.get(a).unwrap().kind(), "x");
    }

    #[test]
    fn retract_removes_and_returns() {
        let mut wm = WorkingMemory::new();
        let id = wm.insert(Fact::new("x"));
        assert_eq!(wm.retract(id).unwrap().kind(), "x");
        assert!(wm.retract(id).is_none());
        assert!(wm.is_empty());
    }

    #[test]
    fn of_kind_filters() {
        let mut wm = WorkingMemory::new();
        wm.insert(Fact::new("a"));
        wm.insert(Fact::new("b"));
        wm.insert(Fact::new("a"));
        assert_eq!(wm.of_kind("a").count(), 2);
        assert_eq!(wm.of_kind("c").count(), 0);
    }

    #[test]
    fn ids_are_not_reused_after_retract() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("x"));
        wm.retract(a);
        let b = wm.insert(Fact::new("y"));
        assert_ne!(a, b);
    }

    #[test]
    fn field_index_probes_by_value() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("obs").with("device", "sw-1").with("value", 10.0));
        let b = wm.insert(Fact::new("obs").with("device", "sw-2").with("value", 10.0));
        wm.insert(Fact::new("obs").with("device", "sw-3").with("value", 20.0));

        let hit = wm
            .ids_by_field("obs", "device", &Term::from("sw-1"))
            .unwrap();
        assert_eq!(hit.to_vec(), vec![a]);
        let tens = wm.ids_by_field("obs", "value", &Term::from(10.0)).unwrap();
        assert_eq!(tens.to_vec(), vec![a, b]);
        assert!(wm
            .ids_by_field("obs", "device", &Term::from("sw-9"))
            .is_none());
        assert!(wm
            .ids_by_field("link", "device", &Term::from("sw-1"))
            .is_none());
    }

    #[test]
    fn field_index_tracks_retraction() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("obs").with("device", "sw-1"));
        wm.retract(a);
        assert!(wm
            .ids_by_field("obs", "device", &Term::from("sw-1"))
            .is_none());
        assert_eq!(wm.of_kind("obs").count(), 0);
    }

    #[test]
    fn negative_zero_shares_a_bucket_with_zero() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("obs").with("value", 0.0));
        let b = wm.insert(Fact::new("obs").with("value", -0.0));
        let zeros = wm.ids_by_field("obs", "value", &Term::from(-0.0)).unwrap();
        assert_eq!(zeros.to_vec(), vec![a, b]);
    }

    #[test]
    fn term_key_orders_numbers_totally() {
        let keys: Vec<TermKey> = [-3.5, -0.0, 0.0, 1.0, f64::INFINITY]
            .iter()
            .map(|x| TermKey::from(&Term::Num(*x)))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys[1], keys[2]);
        assert_eq!(sorted, keys);
    }
}
