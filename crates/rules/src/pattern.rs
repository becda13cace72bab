use std::collections::BTreeMap;
use std::fmt;

use crate::{Fact, FactId, Term, WorkingMemory};

/// Variable bindings accumulated while matching a rule's patterns.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{Bindings, Term};
/// let mut b = Bindings::new();
/// assert!(b.bind("d", Term::from("sw-1")));
/// assert!(b.bind("d", Term::from("sw-1"))); // consistent re-bind is fine
/// assert!(!b.bind("d", Term::from("sw-2"))); // conflicting bind fails
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    vars: BTreeMap<String, Term>,
}

impl Bindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Binds `var` to `value`. Returns `false` if `var` is already bound
    /// to a different value (the match must then be abandoned).
    pub fn bind(&mut self, var: &str, value: Term) -> bool {
        match self.vars.get(var) {
            Some(existing) => *existing == value,
            None => {
                self.vars.insert(var.to_owned(), value);
                true
            }
        }
    }

    /// Looks up a variable.
    pub fn get(&self, var: &str) -> Option<&Term> {
        self.vars.get(var)
    }

    /// Iterates over `(variable, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Substitutes `?var` references in `template` with bound values.
    /// Unbound variables are left verbatim.
    pub fn substitute(&self, template: &str) -> String {
        let mut out = String::with_capacity(template.len());
        let mut chars = template.char_indices().peekable();
        while let Some((_, c)) = chars.next() {
            if c != '?' {
                out.push(c);
                continue;
            }
            let mut name = String::new();
            while let Some(&(_, n)) = chars.peek() {
                if n.is_alphanumeric() || n == '_' || n == '-' {
                    name.push(n);
                    chars.next();
                } else {
                    break;
                }
            }
            match self.vars.get(&name) {
                Some(v) => out.push_str(&v.to_string()),
                None => {
                    out.push('?');
                    out.push_str(&name);
                }
            }
        }
        out
    }
}

/// How one field of a [`Pattern`] matches a fact field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldPattern {
    /// Field must equal this constant.
    Const(Term),
    /// Field binds (or must be consistent with) a variable.
    Var(String),
    /// Field must be present but its value is irrelevant.
    Any,
}

impl fmt::Display for FieldPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldPattern::Const(t) => write!(f, "{t}"),
            FieldPattern::Var(v) => write!(f, "?{v}"),
            FieldPattern::Any => f.write_str("_"),
        }
    }
}

/// A single condition element: matches facts of one kind and binds
/// variables from their fields.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{Bindings, Fact, FieldPattern, Pattern, Term};
///
/// let p = Pattern::new("obs")
///     .field("metric", FieldPattern::Const(Term::from("cpu.load")))
///     .field("value", FieldPattern::Var("v".into()));
/// let fact = Fact::new("obs").with("metric", "cpu.load").with("value", 55.0);
/// let mut b = Bindings::new();
/// assert!(p.matches(&fact, &mut b));
/// assert_eq!(b.get("v").unwrap().as_num(), Some(55.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    kind: String,
    fields: Vec<(String, FieldPattern)>,
}

impl Pattern {
    /// Creates a pattern over facts of `kind` with no field constraints.
    pub fn new(kind: impl Into<String>) -> Self {
        Pattern {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Adds a field constraint (builder style).
    pub fn field(mut self, name: impl Into<String>, pattern: FieldPattern) -> Self {
        self.fields.push((name.into(), pattern));
        self
    }

    /// The fact kind this pattern selects.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The field constraints.
    pub fn fields(&self) -> &[(String, FieldPattern)] {
        &self.fields
    }

    /// Whether matching this pattern binds `var`.
    pub(crate) fn binds(&self, var: &str) -> bool {
        self.fields
            .iter()
            .any(|(_, fp)| matches!(fp, FieldPattern::Var(v) if v == var))
    }

    /// Attempts to match `fact`, extending `bindings`.
    ///
    /// On failure `bindings` may contain partial additions; callers clone
    /// before trying (the engine does).
    pub fn matches(&self, fact: &Fact, bindings: &mut Bindings) -> bool {
        if fact.kind() != self.kind {
            return false;
        }
        for (name, fp) in &self.fields {
            let Some(value) = fact.field(name) else {
                return false;
            };
            match fp {
                FieldPattern::Const(expected) => {
                    if value != expected {
                        return false;
                    }
                }
                FieldPattern::Var(var) => {
                    if !bindings.bind(var, value.clone()) {
                        return false;
                    }
                }
                FieldPattern::Any => {}
            }
        }
        true
    }

    /// All `(fact id, extended bindings)` matches in `wm` consistent with
    /// the incoming bindings, in ascending fact-id order.
    ///
    /// Candidates come from the alpha index: the smallest id set among the
    /// kind bucket and any `(kind, field, value)` bucket probeable from a
    /// `Const` field or a variable already bound in `bindings`. Index
    /// buckets are supersets of the true matches, so every candidate is
    /// still confirmed with [`Pattern::matches`].
    pub fn match_all<'a>(
        &'a self,
        wm: &'a WorkingMemory,
        bindings: &'a Bindings,
    ) -> impl Iterator<Item = (FactId, Bindings)> + 'a {
        let mut candidates = wm.ids_of_kind(&self.kind);
        if candidates.is_some() {
            for (name, fp) in &self.fields {
                let probe = match fp {
                    FieldPattern::Const(value) => Some(value),
                    FieldPattern::Var(var) => bindings.get(var),
                    FieldPattern::Any => None,
                };
                let Some(value) = probe else { continue };
                match wm.ids_by_field(&self.kind, name, value) {
                    None => {
                        candidates = None;
                        break;
                    }
                    Some(bucket) => {
                        if candidates.is_none_or(|best| bucket.len() < best.len()) {
                            candidates = Some(bucket);
                        }
                    }
                }
            }
        }
        candidates.into_iter().flatten().filter_map(move |id| {
            let fact = wm.get(*id).expect("indexed fact exists");
            let mut b = bindings.clone();
            if self.matches(fact, &mut b) {
                Some((*id, b))
            } else {
                None
            }
        })
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        for (i, (name, fp)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {fp}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(device: &str, value: f64) -> Fact {
        Fact::new("obs").with("device", device).with("value", value)
    }

    #[test]
    fn kind_mismatch_fails() {
        let p = Pattern::new("obs");
        let mut b = Bindings::new();
        assert!(!p.matches(&Fact::new("other"), &mut b));
    }

    #[test]
    fn missing_field_fails() {
        let p = Pattern::new("obs").field("missing", FieldPattern::Any);
        let mut b = Bindings::new();
        assert!(!p.matches(&obs("d", 1.0), &mut b));
    }

    #[test]
    fn const_field_must_equal() {
        let p = Pattern::new("obs").field("device", FieldPattern::Const(Term::from("a")));
        let mut b = Bindings::new();
        assert!(p.matches(&obs("a", 1.0), &mut b));
        assert!(!p.matches(&obs("b", 1.0), &mut b));
    }

    #[test]
    fn var_binds_and_joins() {
        let p1 = Pattern::new("obs").field("device", FieldPattern::Var("d".into()));
        let p2 = Pattern::new("obs").field("device", FieldPattern::Var("d".into()));
        let mut b = Bindings::new();
        assert!(p1.matches(&obs("x", 1.0), &mut b));
        // Same variable must match the same device in the second pattern.
        assert!(p2.matches(&obs("x", 2.0), &mut b));
        assert!(!p2.matches(&obs("y", 2.0), &mut b));
    }

    #[test]
    fn match_all_enumerates_consistent_facts() {
        let mut wm = WorkingMemory::new();
        wm.insert(obs("a", 1.0));
        wm.insert(obs("b", 2.0));
        wm.insert(Fact::new("alert"));
        let p = Pattern::new("obs").field("device", FieldPattern::Var("d".into()));
        let matches: Vec<_> = p.match_all(&wm, &Bindings::new()).collect();
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].1.get("d").unwrap().as_str(), Some("a"));
    }

    #[test]
    fn match_all_probes_bound_variables() {
        let mut wm = WorkingMemory::new();
        wm.insert(obs("a", 1.0));
        let b_id = wm.insert(obs("b", 2.0));
        let p = Pattern::new("obs")
            .field("device", FieldPattern::Var("d".into()))
            .field("value", FieldPattern::Var("v".into()));
        let mut incoming = Bindings::new();
        incoming.bind("d", Term::from("b"));
        let matches: Vec<_> = p.match_all(&wm, &incoming).collect();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].0, b_id);
        assert_eq!(matches[0].1.get("v").unwrap().as_num(), Some(2.0));
        // A probe with no bucket yields nothing.
        let mut missing = Bindings::new();
        missing.bind("d", Term::from("zzz"));
        assert_eq!(p.match_all(&wm, &missing).count(), 0);
    }

    #[test]
    fn substitute_replaces_bound_vars_only() {
        let mut b = Bindings::new();
        b.bind("d", Term::from("sw-9"));
        b.bind("v", Term::from(91.5));
        assert_eq!(
            b.substitute("device ?d at ?v% (?unknown)"),
            "device sw-9 at 91.5% (?unknown)"
        );
    }

    #[test]
    fn display_is_readable() {
        let p = Pattern::new("obs")
            .field("device", FieldPattern::Var("d".into()))
            .field("metric", FieldPattern::Const(Term::from("x")))
            .field("ts", FieldPattern::Any);
        assert_eq!(p.to_string(), "obs(device: ?d, metric: x, ts: _)");
    }
}
