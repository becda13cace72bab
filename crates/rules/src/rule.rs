use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::{Bindings, Fact, FieldPattern, Pattern, Term};

/// Severity attached to a [`Finding`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum RuleSeverity {
    /// Informational.
    #[default]
    Info,
    /// Needs attention.
    Warning,
    /// Service-affecting.
    Critical,
}

impl RuleSeverity {
    /// The DSL keyword for this severity.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleSeverity::Info => "info",
            RuleSeverity::Warning => "warning",
            RuleSeverity::Critical => "critical",
        }
    }
}

impl fmt::Display for RuleSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A problem or observation emitted by a fired rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// The rule that fired.
    pub rule: String,
    /// The device(s) concerned (post-substitution).
    pub device: String,
    /// Severity of the finding.
    pub severity: RuleSeverity,
    /// Message (post-substitution).
    pub message: String,
}

/// A value source in guards and effects: a literal or a bound variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal term.
    Const(Term),
    /// A variable bound by some pattern.
    Var(String),
}

impl Operand {
    /// Resolves the operand against the bindings.
    pub fn resolve(&self, bindings: &Bindings) -> Option<Term> {
        match self {
            Operand::Const(t) => Some(t.clone()),
            Operand::Var(v) => bindings.get(v).cloned(),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(t) => write!(f, "{t}"),
            Operand::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// Comparison operator in a [`Guard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl GuardOp {
    /// The DSL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            GuardOp::Lt => "<",
            GuardOp::Le => "<=",
            GuardOp::Gt => ">",
            GuardOp::Ge => ">=",
            GuardOp::Eq => "==",
            GuardOp::Ne => "!=",
        }
    }
}

impl fmt::Display for GuardOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A boolean test over bound variables, evaluated after pattern matching.
///
/// A guard whose operands cannot be resolved or compared (unbound
/// variable, mixed types under an ordering operator) evaluates to `false`
/// rather than erroring: the activation simply does not fire.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    /// Left operand.
    pub left: Operand,
    /// Comparison operator.
    pub op: GuardOp,
    /// Right operand.
    pub right: Operand,
}

impl Guard {
    /// Creates a guard.
    pub fn new(left: Operand, op: GuardOp, right: Operand) -> Self {
        Guard { left, op, right }
    }

    /// Evaluates the guard under `bindings`.
    pub fn eval(&self, bindings: &Bindings) -> bool {
        let (Some(l), Some(r)) = (self.left.resolve(bindings), self.right.resolve(bindings)) else {
            return false;
        };
        match self.op {
            GuardOp::Eq => l == r,
            GuardOp::Ne => l != r,
            op => match l.partial_cmp(&r) {
                Some(ord) => match op {
                    GuardOp::Lt => ord.is_lt(),
                    GuardOp::Le => ord.is_le(),
                    GuardOp::Gt => ord.is_gt(),
                    GuardOp::Ge => ord.is_ge(),
                    GuardOp::Eq | GuardOp::Ne => unreachable!("handled above"),
                },
                None => false,
            },
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// Action taken when a rule fires.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Assert a new fact built from operands.
    Assert {
        /// Kind of the asserted fact.
        kind: String,
        /// Field templates resolved against the bindings.
        fields: Vec<(String, Operand)>,
    },
    /// Retract the fact matched by the `when` clause at this index
    /// (0-based).
    Retract(usize),
    /// Emit a [`Finding`] for the interface grid.
    Emit {
        /// Severity of the finding.
        severity: RuleSeverity,
        /// Operand naming the device concerned.
        device: Operand,
        /// Message template (supports `?var` substitution).
        message: String,
    },
}

impl Effect {
    /// Instantiates an `Assert` effect into a concrete fact.
    /// Returns `None` for other effects or when a variable is unbound.
    pub fn instantiate(&self, bindings: &Bindings) -> Option<Fact> {
        match self {
            Effect::Assert { kind, fields } => {
                let mut fact = Fact::new(kind.clone());
                for (name, op) in fields {
                    fact = fact.with(name.clone(), op.resolve(bindings)?);
                }
                Some(fact)
            }
            _ => None,
        }
    }
}

/// A production rule: `when` patterns, `if` guards, `then` effects.
///
/// Build rules with [`Rule::new`] and the builder methods, or parse them
/// from the DSL with [`crate::parse_rules`].
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{FieldPattern, Guard, GuardOp, Operand, Pattern, Rule, Term};
///
/// let rule = Rule::new("link-down")
///     .salience(5)
///     .when(
///         Pattern::new("obs")
///             .field("metric", FieldPattern::Const(Term::from("if.oper-status")))
///             .field("value", FieldPattern::Var("v".into())),
///     )
///     .guard(Guard::new(
///         Operand::Var("v".into()),
///         GuardOp::Eq,
///         Operand::Const(Term::from(0.0)),
///     ));
/// assert_eq!(rule.name(), "link-down");
/// assert_eq!(rule.patterns().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    name: String,
    salience: i32,
    patterns: Vec<Pattern>,
    guards: Vec<Guard>,
    effects: Vec<Effect>,
}

impl Rule {
    /// Creates an empty rule with salience 0.
    pub fn new(name: impl Into<String>) -> Self {
        Rule {
            name: name.into(),
            salience: 0,
            patterns: Vec::new(),
            guards: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Sets the salience (higher fires first).
    pub fn salience(mut self, salience: i32) -> Self {
        self.salience = salience;
        self
    }

    /// Adds a `when` pattern.
    pub fn when(mut self, pattern: Pattern) -> Self {
        self.patterns.push(pattern);
        self
    }

    /// Adds an `if` guard.
    pub fn guard(mut self, guard: Guard) -> Self {
        self.guards.push(guard);
        self
    }

    /// Adds a `then` effect.
    pub fn then(mut self, effect: Effect) -> Self {
        self.effects.push(effect);
        self
    }

    /// The rule name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The salience.
    pub fn salience_value(&self) -> i32 {
        self.salience
    }

    /// The `when` patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// The `if` guards.
    pub fn guards(&self) -> &[Guard] {
        &self.guards
    }

    /// The `then` effects.
    pub fn effects(&self) -> &[Effect] {
        &self.effects
    }

    /// Whether all guards pass under `bindings`.
    pub fn guards_pass(&self, bindings: &Bindings) -> bool {
        self.guards.iter().all(|g| g.eval(bindings))
    }

    /// The *skill* this rule needs from a container: the kind of its first
    /// pattern (used by the broker to route analysis tasks, Fig. 3).
    pub fn skill(&self) -> Option<&str> {
        self.patterns.first().map(|p| p.kind())
    }

    /// The guard schedule: for each guard, how many patterns must be
    /// joined before it runs — one past the pattern that binds its last
    /// variable, so every operand it reads is already bound. A guard over
    /// constants only runs before the first join; a guard over a
    /// variable no pattern binds runs after the last, where it fails.
    fn guard_schedule(&self) -> Vec<usize> {
        let depth_of = |operand: &Operand| match operand {
            Operand::Const(_) => 0,
            Operand::Var(var) => self
                .patterns
                .iter()
                .position(|pattern| pattern.binds(var))
                .map_or(self.patterns.len(), |index| index + 1),
        };
        self.guards
            .iter()
            .map(|guard| depth_of(&guard.left).max(depth_of(&guard.right)))
            .collect()
    }

    /// The fact kinds this rule's effects assert.
    fn writes(&self) -> impl Iterator<Item = &str> {
        self.effects.iter().filter_map(|effect| match effect {
            Effect::Assert { kind, .. } => Some(kind.as_str()),
            _ => None,
        })
    }

    /// The fact kinds this rule's effects retract.
    fn retracts(&self) -> impl Iterator<Item = &str> {
        self.effects.iter().filter_map(|effect| match effect {
            Effect::Retract(index) => self.patterns.get(*index).map(Pattern::kind),
            _ => None,
        })
    }
}

/// The facts a knowledge base can react to, compiled from its rules'
/// patterns: for each fact kind some pattern names, the constant field
/// constraints of every pattern over that kind — the TREAT alpha keys,
/// e.g. `obs` only with `metric: "agent.reachable"`.
///
/// A fact no key admits matches no pattern, so it can never activate,
/// retract or join: leaving it out of working memory changes no finding,
/// and the facts that remain keep their relative recency order.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{parse_rules, Fact, KnowledgeBase};
///
/// let kb = KnowledgeBase::from_rules(parse_rules(r#"
///     rule "down" {
///         when obs(device: ?d, metric: "agent.reachable", value: ?v)
///         if ?v == 0
///         then emit critical ?d "down"
///     }
/// "#)?);
/// let keys = kb.alpha_keys();
/// assert!(keys.admits(&Fact::new("obs").with("metric", "agent.reachable")));
/// assert!(!keys.admits(&Fact::new("obs").with("metric", "cpu.load.1")));
/// assert!(!keys.may_admit("stat", &[]));
/// # Ok::<(), agentgrid_rules::ParseRuleError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlphaKeys {
    /// Fact kind → the constant `(field, value)` constraints of each
    /// distinct pattern over it; an empty list admits every fact of the
    /// kind.
    kinds: BTreeMap<String, Vec<Vec<(String, Term)>>>,
}

impl AlphaKeys {
    fn compile<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> Self {
        let mut kinds: BTreeMap<String, Vec<Vec<(String, Term)>>> = BTreeMap::new();
        for pattern in rules.into_iter().flat_map(Rule::patterns) {
            let consts: Vec<(String, Term)> = pattern
                .fields()
                .iter()
                .filter_map(|(name, fp)| match fp {
                    FieldPattern::Const(value) => Some((name.clone(), value.clone())),
                    FieldPattern::Var(_) | FieldPattern::Any => None,
                })
                .collect();
            let keys = kinds.entry(pattern.kind().to_owned()).or_default();
            if !keys.contains(&consts) {
                keys.push(consts);
            }
        }
        AlphaKeys { kinds }
    }

    /// Whether some pattern could match `fact`.
    pub fn admits(&self, fact: &Fact) -> bool {
        self.kinds.get(fact.kind()).is_some_and(|keys| {
            keys.iter().any(|consts| {
                consts
                    .iter()
                    .all(|(field, value)| fact.field(field) == Some(value))
            })
        })
    }

    /// Whether some pattern could match a fact of `kind` whose string
    /// fields include `known`; fields not listed are assumed to match.
    /// Lets a caller skip computing a fact that could never be admitted.
    pub fn may_admit(&self, kind: &str, known: &[(&str, &str)]) -> bool {
        self.kinds.get(kind).is_some_and(|keys| {
            keys.iter().any(|consts| {
                consts.iter().all(|(field, value)| {
                    known
                        .iter()
                        .find(|(name, _)| name == field)
                        .is_none_or(|(_, v)| value.as_str() == Some(v))
                })
            })
        })
    }
}

/// The slice of a knowledge base one analysis level runs (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Levels 1 and 2, which read each device's own data: the rules with
    /// fewer than two patterns.
    PerDevice,
    /// Level 3, which correlates across devices: the rules with two or
    /// more patterns, closed over the rules that feed them — every rule
    /// that asserts or retracts a fact kind a member reads — and over
    /// the rules that read a kind a member asserts.
    Correlation,
}

/// One [`View`] of a knowledge base: indices into its rules plus the
/// [`AlphaKeys`] of those rules alone, so an engine restricted to the
/// view also loads only the facts the view can react to.
///
/// The correlation view is closed under "feeds": no rule outside it
/// asserts or retracts a fact kind a rule inside reads. So a rule of the
/// view fires exactly as it does under the whole base, and running the
/// view yields the whole base's findings filtered to the view's rules,
/// in the same order.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{parse_rules, KnowledgeBase, View};
///
/// let kb = KnowledgeBase::from_rules(parse_rules(r#"
///     rule "mark-hot" { when cpu(device: ?d, value: ?v) if ?v > 90 then assert hot(device: ?d) }
///     rule "hot-and-full" {
///         when hot(device: ?d)
///         when disk(device: ?d, value: ?x)
///         if ?x > 50
///         then emit warning ?d "hot and full"
///     }
///     rule "full" { when disk(device: ?d, value: ?x) if ?x > 90 then emit warning ?d "full" }
/// "#)?);
/// // `hot-and-full` joins; `mark-hot` feeds it the `hot` facts.
/// assert_eq!(kb.view(View::Correlation).rules(), [0, 1]);
/// assert_eq!(kb.view(View::PerDevice).rules(), [0, 2]);
/// # Ok::<(), agentgrid_rules::ParseRuleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RuleView {
    /// Ascending indices into the knowledge base's rules.
    rules: Vec<usize>,
    alpha: AlphaKeys,
}

impl RuleView {
    fn compile(rules: &[Rule], view: View) -> Self {
        let correlation = view == View::Correlation;
        let mut members: BTreeSet<usize> = (0..rules.len())
            .filter(|&i| (rules[i].patterns().len() >= 2) == correlation)
            .collect();
        // Fixpoint: pull in the producers of every kind a member reads
        // and the consumers of every kind a member asserts.
        let mut settled = 0;
        while correlation && members.len() != settled {
            settled = members.len();
            let reads: BTreeSet<&str> = members
                .iter()
                .flat_map(|&i| rules[i].patterns().iter().map(Pattern::kind))
                .collect();
            let asserts: BTreeSet<&str> = members.iter().flat_map(|&i| rules[i].writes()).collect();
            members.extend((0..rules.len()).filter(|&i| {
                rules[i].writes().any(|kind| reads.contains(kind))
                    || rules[i].retracts().any(|kind| reads.contains(kind))
                    || rules[i]
                        .patterns()
                        .iter()
                        .any(|p| asserts.contains(p.kind()))
            }));
        }
        let rules_in: Vec<usize> = members.into_iter().collect();
        let alpha = AlphaKeys::compile(rules_in.iter().map(|&i| &rules[i]));
        RuleView {
            rules: rules_in,
            alpha,
        }
    }

    /// The view's rules, as ascending indices into the knowledge base.
    pub fn rules(&self) -> &[usize] {
        &self.rules
    }

    /// Whether the rule at `index` belongs to the view.
    pub fn contains(&self, index: usize) -> bool {
        self.rules.binary_search(&index).is_ok()
    }

    /// The facts the view's rules can react to.
    pub fn alpha_keys(&self) -> &AlphaKeys {
        &self.alpha
    }
}

/// What a knowledge base compiles on first use after an edit.
#[derive(Debug, Clone)]
struct Compiled {
    /// The [`View::PerDevice`] and [`View::Correlation`] views.
    views: [RuleView; 2],
    /// Each rule's [`Rule::guard_schedule`], by rule index.
    guard_schedules: Vec<Vec<usize>>,
}

/// A named collection of rules — the paper's *knowledge base* (KdB).
///
/// Knowledge bases can be merged (`absorb`) and extended at runtime
/// (`learn`), which is how the interface grid feeds user-defined rules
/// back into the processor grid (§3.4). Every edit recompiles the
/// base's [`AlphaKeys`] and drops its [`RuleView`]s and guard schedules,
/// which are compiled again on first use.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{KnowledgeBase, Rule};
/// let mut kb = KnowledgeBase::new();
/// kb.learn(Rule::new("r1"));
/// kb.learn(Rule::new("r1")); // replaces, does not duplicate
/// assert_eq!(kb.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    rules: Vec<Rule>,
    alpha: AlphaKeys,
    /// The views and guard schedules, compiled on first use: a base
    /// shared by many engines compiles them once.
    compiled: OnceLock<Compiled>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// Creates a knowledge base from rules (later duplicates replace
    /// earlier ones by name).
    pub fn from_rules(rules: impl IntoIterator<Item = Rule>) -> Self {
        let mut kb = KnowledgeBase::new();
        kb.extend(rules);
        kb
    }

    /// Adds a rule, replacing any existing rule with the same name.
    pub fn learn(&mut self, rule: Rule) {
        self.put(rule);
        self.recompile();
    }

    /// Removes a rule by name. Returns it if present.
    pub fn forget(&mut self, name: &str) -> Option<Rule> {
        let idx = self.rules.iter().position(|r| r.name() == name)?;
        let rule = self.rules.remove(idx);
        self.recompile();
        Some(rule)
    }

    /// Merges all rules of `other` into `self` (the paper's "shared
    /// knowledge" across sites).
    pub fn absorb(&mut self, other: KnowledgeBase) {
        self.extend(other.rules);
    }

    /// The facts any rule can react to, compiled on every edit.
    pub fn alpha_keys(&self) -> &AlphaKeys {
        &self.alpha
    }

    /// One level's view of the rules, compiled on first use after an
    /// edit.
    pub fn view(&self, view: View) -> &RuleView {
        let views = &self.compiled().views;
        match view {
            View::PerDevice => &views[0],
            View::Correlation => &views[1],
        }
    }

    /// The guard schedule of the rule at `index`: for each of its guards,
    /// the number of joined patterns after which the guard runs.
    pub(crate) fn guard_schedule(&self, index: usize) -> &[usize] {
        &self.compiled().guard_schedules[index]
    }

    fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| Compiled {
            views: [
                RuleView::compile(&self.rules, View::PerDevice),
                RuleView::compile(&self.rules, View::Correlation),
            ],
            guard_schedules: self.rules.iter().map(Rule::guard_schedule).collect(),
        })
    }

    /// Replace-by-name insertion without recompiling the alpha keys.
    fn put(&mut self, rule: Rule) {
        if let Some(existing) = self.rules.iter_mut().find(|r| r.name() == rule.name()) {
            *existing = rule;
        } else {
            self.rules.push(rule);
        }
    }

    fn recompile(&mut self) {
        self.alpha = AlphaKeys::compile(&self.rules);
        self.compiled = OnceLock::new();
    }

    /// Looks up a rule by name.
    pub fn get(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name() == name)
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the knowledge base has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The set of skills (first-pattern kinds) the rules need; used when a
    /// container advertises its knowledge to the directory.
    pub fn skills(&self) -> Vec<&str> {
        let mut skills: Vec<&str> = self.rules.iter().filter_map(Rule::skill).collect();
        skills.sort_unstable();
        skills.dedup();
        skills
    }
}

impl FromIterator<Rule> for KnowledgeBase {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        KnowledgeBase::from_rules(iter)
    }
}

impl Extend<Rule> for KnowledgeBase {
    fn extend<T: IntoIterator<Item = Rule>>(&mut self, iter: T) {
        for rule in iter {
            self.put(rule);
        }
        self.recompile();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_comparisons() {
        let mut b = Bindings::new();
        b.bind("x", Term::from(5.0));
        let cases = [
            (GuardOp::Lt, 6.0, true),
            (GuardOp::Le, 5.0, true),
            (GuardOp::Gt, 4.0, true),
            (GuardOp::Ge, 5.0, true),
            (GuardOp::Eq, 5.0, true),
            (GuardOp::Ne, 5.0, false),
            (GuardOp::Lt, 5.0, false),
        ];
        for (op, rhs, expected) in cases {
            let g = Guard::new(
                Operand::Var("x".into()),
                op,
                Operand::Const(Term::from(rhs)),
            );
            assert_eq!(g.eval(&b), expected, "{g}");
        }
    }

    #[test]
    fn guard_with_unbound_var_is_false() {
        let g = Guard::new(
            Operand::Var("missing".into()),
            GuardOp::Eq,
            Operand::Const(Term::from(1.0)),
        );
        assert!(!g.eval(&Bindings::new()));
    }

    #[test]
    fn guard_on_mixed_types_is_false_for_orderings() {
        let mut b = Bindings::new();
        b.bind("s", Term::from("text"));
        let g = Guard::new(
            Operand::Var("s".into()),
            GuardOp::Gt,
            Operand::Const(Term::from(1.0)),
        );
        assert!(!g.eval(&b));
        // But inequality between different types holds.
        let ne = Guard::new(
            Operand::Var("s".into()),
            GuardOp::Ne,
            Operand::Const(Term::from(1.0)),
        );
        assert!(ne.eval(&b));
    }

    #[test]
    fn assert_effect_instantiates_with_bindings() {
        let mut b = Bindings::new();
        b.bind("d", Term::from("r1"));
        let e = Effect::Assert {
            kind: "problem".into(),
            fields: vec![
                ("device".into(), Operand::Var("d".into())),
                ("kind".into(), Operand::Const(Term::from("cpu"))),
            ],
        };
        let fact = e.instantiate(&b).unwrap();
        assert_eq!(fact.kind(), "problem");
        assert_eq!(fact.field("device").unwrap().as_str(), Some("r1"));
    }

    #[test]
    fn assert_effect_with_unbound_var_yields_none() {
        let e = Effect::Assert {
            kind: "p".into(),
            fields: vec![("d".into(), Operand::Var("nope".into()))],
        };
        assert_eq!(e.instantiate(&Bindings::new()), None);
    }

    #[test]
    fn kb_learn_replaces_by_name() {
        let mut kb = KnowledgeBase::new();
        kb.learn(Rule::new("r").salience(1));
        kb.learn(Rule::new("r").salience(9));
        assert_eq!(kb.len(), 1);
        assert_eq!(kb.get("r").unwrap().salience_value(), 9);
    }

    #[test]
    fn kb_absorb_merges() {
        let mut a = KnowledgeBase::from_rules([Rule::new("x")]);
        let b = KnowledgeBase::from_rules([Rule::new("x").salience(2), Rule::new("y")]);
        a.absorb(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("x").unwrap().salience_value(), 2);
    }

    #[test]
    fn kb_forget_removes() {
        let mut kb = KnowledgeBase::from_rules([Rule::new("x"), Rule::new("y")]);
        assert!(kb.forget("x").is_some());
        assert!(kb.forget("x").is_none());
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn kb_skills_deduplicate_first_pattern_kinds() {
        let kb = KnowledgeBase::from_rules([
            Rule::new("a").when(Pattern::new("obs")),
            Rule::new("b").when(Pattern::new("obs")),
            Rule::new("c").when(Pattern::new("problem")),
            Rule::new("d"), // no pattern, no skill
        ]);
        assert_eq!(kb.skills(), ["obs", "problem"]);
    }

    fn obs_rule(name: &str, metric: &str) -> Rule {
        Rule::new(name).when(
            Pattern::new("obs")
                .field("metric", FieldPattern::Const(Term::from(metric)))
                .field("value", FieldPattern::Var("v".into())),
        )
    }

    fn obs(metric: &str) -> Fact {
        Fact::new("obs")
            .with("device", "d")
            .with("metric", metric)
            .with("value", 1.0)
    }

    #[test]
    fn alpha_keys_admit_only_matchable_facts() {
        let kb = KnowledgeBase::from_rules([
            obs_rule("reach", "agent.reachable"),
            Rule::new("cpu").when(Pattern::new("cpu").field("value", FieldPattern::Any)),
        ]);
        let keys = kb.alpha_keys();
        assert!(keys.admits(&obs("agent.reachable")));
        assert!(!keys.admits(&obs("cpu.load.1")));
        assert!(keys.admits(&Fact::new("cpu").with("value", 3.0)));
        assert!(!keys.admits(&Fact::new("mem").with("value", 3.0)));
        assert!(keys.may_admit("obs", &[("device", "d"), ("metric", "agent.reachable")]));
        assert!(!keys.may_admit("obs", &[("metric", "cpu.load.1")]));
        // Unlisted fields are assumed to match.
        assert!(keys.may_admit("obs", &[("device", "d")]));
        assert!(!keys.may_admit("stat", &[]));
    }

    #[test]
    fn alpha_keys_follow_every_edit() {
        let mut kb = KnowledgeBase::new();
        assert!(!kb.alpha_keys().admits(&obs("m1")));
        kb.learn(obs_rule("a", "m1"));
        assert!(kb.alpha_keys().admits(&obs("m1")));
        kb.extend([obs_rule("b", "m2")]);
        assert!(kb.alpha_keys().admits(&obs("m2")));
        kb.absorb(KnowledgeBase::from_rules([obs_rule("c", "m3")]));
        assert!(kb.alpha_keys().admits(&obs("m3")));
        // Replacing a rule by name drops the old rule's keys.
        kb.learn(obs_rule("a", "m4"));
        assert!(!kb.alpha_keys().admits(&obs("m1")));
        assert!(kb.alpha_keys().admits(&obs("m4")));
        kb.forget("b");
        assert!(!kb.alpha_keys().admits(&obs("m2")));
        assert_eq!(kb.alpha_keys(), &AlphaKeys::compile(&kb.rules));
    }

    fn pair_rule(name: &str, first: &str, second: &str) -> Rule {
        Rule::new(name)
            .when(Pattern::new(first).field("device", FieldPattern::Var("d".into())))
            .when(Pattern::new(second).field("device", FieldPattern::Var("d".into())))
    }

    #[test]
    fn views_split_by_pattern_count_and_close_over_feeding_rules() {
        let feeds = Rule::new("feeds")
            .when(Pattern::new("obs"))
            .then(Effect::Assert {
                kind: "hot".into(),
                fields: Vec::new(),
            });
        let eats = Rule::new("eats")
            .when(Pattern::new("cold"))
            .then(Effect::Retract(0));
        let reads_join = Rule::new("reads-join").when(Pattern::new("pair"));
        let join = pair_rule("join", "hot", "cold").then(Effect::Assert {
            kind: "pair".into(),
            fields: Vec::new(),
        });
        let kb = KnowledgeBase::from_rules([
            Rule::new("alone").when(Pattern::new("mem")),
            feeds,
            eats,
            reads_join,
            join,
        ]);
        // `feeds` asserts and `eats` retracts what `join` reads;
        // `reads-join` reads what `join` asserts.
        assert_eq!(kb.view(View::Correlation).rules(), [1, 2, 3, 4]);
        assert_eq!(kb.view(View::PerDevice).rules(), [0, 1, 2, 3]);
        let keys = kb.view(View::Correlation).alpha_keys();
        assert!(keys.admits(&Fact::new("pair")));
        assert!(
            !keys.may_admit("mem", &[]),
            "no key of a rule outside the view"
        );
    }

    #[test]
    fn views_follow_every_edit() {
        let mut kb = KnowledgeBase::from_rules([obs_rule("r", "m1")]);
        assert_eq!(kb.view(View::PerDevice).rules(), [0]);
        assert!(kb.view(View::Correlation).rules().is_empty());
        // Re-learning a name with two patterns moves it between views.
        kb.learn(pair_rule("r", "cpu", "disk"));
        assert!(kb.view(View::PerDevice).rules().is_empty());
        assert_eq!(kb.view(View::Correlation).rules(), [0]);
        assert!(kb
            .view(View::Correlation)
            .alpha_keys()
            .may_admit("disk", &[]));
        kb.absorb(KnowledgeBase::from_rules([obs_rule("s", "m2")]));
        assert_eq!(kb.view(View::PerDevice).rules(), [1]);
        kb.forget("r");
        assert_eq!(kb.view(View::PerDevice).rules(), [0]);
        assert!(kb.view(View::Correlation).rules().is_empty());
    }

    #[test]
    fn rule_skill_is_first_pattern_kind() {
        let r = Rule::new("r")
            .when(Pattern::new("disk").field("v", FieldPattern::Any))
            .when(Pattern::new("cpu"));
        assert_eq!(r.skill(), Some("disk"));
    }
}
