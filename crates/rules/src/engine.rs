use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::{
    AlphaKeys, Bindings, Effect, Fact, FactId, Finding, KnowledgeBase, Rule, View, WorkingMemory,
};

/// Statistics of one [`Engine::run`], used by the grid for cost
/// accounting (an analysis task's CPU cost is proportional to the work
/// the engine did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Recognize-act cycles executed.
    pub cycles: u64,
    /// Activations fired.
    pub fired: u64,
    /// Facts asserted by effects.
    pub asserted: u64,
    /// Facts retracted by effects.
    pub retracted: u64,
    /// Pattern-match attempts (join work), a proxy for CPU cost.
    pub match_attempts: u64,
}

/// Result of a forward-chaining run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Findings emitted by fired rules, in firing order.
    pub findings: Vec<Finding>,
    /// Execution statistics.
    pub stats: RunStats,
    /// Whether the run stopped because it hit the cycle limit instead of
    /// reaching quiescence.
    pub truncated: bool,
}

/// Agenda ordering key.
///
/// `BTreeMap::pop_first` on this key yields exactly the activation the
/// naive conflict-set scan would pick: highest salience, then highest
/// recency (max fact id in the tuple), then lowest rule index, then the
/// lexicographically smallest fact tuple — the scan enumerates tuples in
/// ascending-id order and keeps the first of equals, so the smallest
/// tuple wins the final tie there too.
type AgendaKey = (Reverse<i32>, Reverse<FactId>, usize, Vec<FactId>);

/// Forward-chaining inference engine with TREAT-style incremental
/// matching.
///
/// The engine owns a [`WorkingMemory`] and a shared [`KnowledgeBase`] and
/// runs the classic recognize–act cycle, but the conflict set is kept as
/// a persistent **agenda** across cycles: after a rule fires, only rules
/// whose patterns touch the cycle's delta (facts asserted or retracted by
/// the effects) are re-matched, and entries invalidated by retraction are
/// removed. Untouched rules keep their agenda entries verbatim — the
/// conflict set is never rebuilt from scratch inside a run.
///
/// Guards are not left to the end of the join: each runs right after the
/// pattern that binds its last variable, so a partial tuple that fails
/// one is never extended (a threshold on the first pattern of a
/// two-pattern join makes the join linear instead of quadratic).
///
/// Observable behaviour (findings, firing order, `fired`/`asserted`/
/// `retracted` counts) is identical to the retained
/// [`NaiveEngine`](crate::NaiveEngine); only
/// [`RunStats::match_attempts`] shrinks.
///
/// **Refraction**: an activation is identified by `(rule, fact ids)`; once
/// fired it never fires again, even across separate [`run`](Engine::run)
/// calls, unless one of its facts was retracted and re-asserted (new ids).
/// Internally the set is keyed by `(rule index, fact ids)` — no string
/// allocation per candidate — and remapped by rule *name* if the
/// knowledge base is edited, preserving the name-keyed semantics.
///
/// # Examples
///
/// ```
/// use agentgrid_rules::{Engine, Fact, KnowledgeBase, parse_rules};
///
/// let kb = KnowledgeBase::from_rules(parse_rules(r#"
///     rule "chain" {
///         when seed(n: ?n)
///         then assert grown(n: ?n)
///     }
///     rule "harvest" {
///         when grown(n: ?n)
///         then emit info "field" "grew ?n"
///     }
/// "#)?);
/// let mut engine = Engine::new(kb);
/// engine.insert(Fact::new("seed").with("n", 1.0));
/// let out = engine.run();
/// assert_eq!(out.findings.len(), 1);
/// assert_eq!(out.findings[0].message, "grew 1");
/// # Ok::<(), agentgrid_rules::ParseRuleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    kb: Arc<KnowledgeBase>,
    wm: WorkingMemory,
    /// Refraction set keyed by `(rule index, fact tuple)`.
    fired: BTreeSet<(usize, Vec<FactId>)>,
    /// Persistent conflict set: unfired, guard-passing activations.
    agenda: BTreeMap<AgendaKey, Bindings>,
    /// Rule-name snapshot backing the indices in `fired`; used to remap
    /// the refraction set when the knowledge base is edited.
    rule_names: Vec<String>,
    /// Facts asserted since the agenda was last brought up to date —
    /// external inserts plus the previous cycle's assert effects.
    pending_added: Vec<FactId>,
    /// Facts retracted since the agenda was last brought up to date
    /// (stored by value: they are gone from working memory).
    pending_removed: Vec<Fact>,
    /// Whether the agenda reflects the working memory. `false` forces one
    /// full conflict-set build on the next run.
    primed: bool,
    /// Set by [`knowledge_mut`](Engine::knowledge_mut): rules may have
    /// changed, so re-sync names and rebuild the agenda.
    kb_dirty: bool,
    /// The knowledge base's view runs are restricted to; `None` runs
    /// every rule.
    view: Option<View>,
    max_cycles: u64,
}

impl Engine {
    /// Creates an engine over a knowledge base with an empty working
    /// memory and the default cycle limit (10 000).
    pub fn new(kb: KnowledgeBase) -> Self {
        Engine::shared(Arc::new(kb))
    }

    /// Creates an engine over a knowledge base shared with other engines
    /// (e.g. one compiled rule set per grid, many analyzers).
    pub fn shared(kb: Arc<KnowledgeBase>) -> Self {
        let rule_names = kb.iter().map(|r| r.name().to_owned()).collect();
        Engine {
            kb,
            wm: WorkingMemory::new(),
            fired: BTreeSet::new(),
            agenda: BTreeMap::new(),
            rule_names,
            pending_added: Vec::new(),
            pending_removed: Vec::new(),
            primed: false,
            kb_dirty: false,
            view: None,
            max_cycles: 10_000,
        }
    }

    /// Replaces the cycle limit (a safety net against runaway rule sets).
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Inserts a fact.
    pub fn insert(&mut self, fact: Fact) -> FactId {
        let id = self.wm.insert(fact);
        self.pending_added.push(id);
        id
    }

    /// Inserts many facts.
    pub fn insert_all(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for fact in facts {
            self.insert(fact);
        }
    }

    /// Read access to the working memory.
    pub fn memory(&self) -> &WorkingMemory {
        &self.wm
    }

    /// Read access to the knowledge base.
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Mutable access to the knowledge base (to learn rules at runtime).
    ///
    /// If the base is shared with other engines this copies it first
    /// (copy-on-write), so learning stays local to this engine.
    pub fn knowledge_mut(&mut self) -> &mut KnowledgeBase {
        self.kb_dirty = true;
        Arc::make_mut(&mut self.kb)
    }

    /// Restricts later runs to one [`View`] of the knowledge base (an
    /// engine runs every rule until then). The view follows
    /// knowledge-base edits; a change of view rebuilds the agenda on the
    /// next run.
    pub fn set_view(&mut self, view: View) {
        if self.view != Some(view) {
            self.view = Some(view);
            self.primed = false;
        }
    }

    /// The facts the rules this engine runs can react to: the view's
    /// [`AlphaKeys`] when restricted, the whole base's otherwise.
    pub fn alpha_keys(&self) -> &AlphaKeys {
        match self.view {
            Some(view) => self.kb.view(view).alpha_keys(),
            None => self.kb.alpha_keys(),
        }
    }

    /// Clears the working memory, agenda and refraction history (e.g.
    /// between analysis batches). The knowledge base is kept.
    pub fn reset(&mut self) {
        self.wm = WorkingMemory::new();
        self.fired.clear();
        self.agenda.clear();
        self.pending_added.clear();
        self.pending_removed.clear();
        self.primed = false;
    }

    /// Runs recognize–act cycles until quiescence or the cycle limit.
    ///
    /// Delta integration is lazy — it runs at the top of each cycle, just
    /// before the pick, mirroring when the naive engine computes its
    /// conflict set. That alignment is what keeps `match_attempts` a
    /// strict subset of the naive count: both engines examine exactly the
    /// same working-memory states, the incremental one just skips the
    /// rules the delta cannot have touched (and a truncated run leaves
    /// its last delta pending, exactly as the naive engine never looks at
    /// the post-truncation state).
    pub fn run(&mut self) -> RunOutcome {
        let mut outcome = RunOutcome::default();
        self.sync_knowledge();
        loop {
            if outcome.stats.cycles >= self.max_cycles {
                outcome.truncated = true;
                break;
            }
            self.integrate(&mut outcome.stats);
            let Some((key, bindings)) = self.agenda.pop_first() else {
                break;
            };
            outcome.stats.cycles += 1;
            self.fire(key, bindings, &mut outcome);
        }
        outcome
    }

    /// Re-syncs engine state after knowledge-base edits: refraction
    /// entries follow their rule's *name* to its new index (entries of
    /// removed rules drop), and the agenda is scheduled for a rebuild
    /// since rule bodies may have changed.
    fn sync_knowledge(&mut self) {
        if !self.kb_dirty {
            return;
        }
        self.kb_dirty = false;
        let new_names: Vec<String> = self.kb.iter().map(|r| r.name().to_owned()).collect();
        if new_names != self.rule_names {
            let index_of: BTreeMap<&str, usize> = new_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect();
            self.fired = std::mem::take(&mut self.fired)
                .into_iter()
                .filter_map(|(old_index, ids)| {
                    let name = self.rule_names.get(old_index)?;
                    index_of.get(name.as_str()).map(|&new| (new, ids))
                })
                .collect();
            self.rule_names = new_names;
        }
        self.primed = false;
    }

    /// Brings the agenda up to date with working memory: a full build if
    /// unprimed, otherwise a delta pass over rules touched by the facts
    /// asserted or retracted since the last integration.
    fn integrate(&mut self, stats: &mut RunStats) {
        let kb = Arc::clone(&self.kb);
        let view = self.view.map(|view| kb.view(view));
        let in_view =
            |&(rule_index, _): &(usize, &Rule)| view.is_none_or(|v| v.contains(rule_index));
        if !self.primed {
            self.agenda.clear();
            self.pending_added.clear();
            self.pending_removed.clear();
            for (rule_index, rule) in kb.iter().enumerate().filter(in_view) {
                self.refresh_rule(rule_index, rule, stats);
            }
            self.primed = true;
            return;
        }
        if self.pending_added.is_empty() && self.pending_removed.is_empty() {
            return;
        }
        let added = std::mem::take(&mut self.pending_added);
        let removed = std::mem::take(&mut self.pending_removed);
        for (rule_index, rule) in kb.iter().enumerate().filter(in_view) {
            if self.touched(rule, &added, &removed) {
                self.refresh_rule(rule_index, rule, stats);
            }
        }
    }

    /// Whether any pattern of `rule` individually matches an added or
    /// removed fact — i.e. whether the rule's match set can have changed.
    fn touched(&self, rule: &Rule, added: &[FactId], removed: &[Fact]) -> bool {
        rule.patterns().iter().any(|pattern| {
            added.iter().any(|id| {
                self.wm
                    .get(*id)
                    .is_some_and(|fact| pattern.matches(fact, &mut Bindings::new()))
            }) || removed
                .iter()
                .any(|fact| pattern.matches(fact, &mut Bindings::new()))
        })
    }

    /// Recomputes one rule's agenda entries from the current working
    /// memory, dropping any stale ones first. The join has already
    /// applied the guards and refraction is checked here, so the agenda
    /// holds only fireable activations.
    fn refresh_rule(&mut self, rule_index: usize, rule: &Rule, stats: &mut RunStats) {
        self.agenda.retain(|key, _| key.2 != rule_index);
        let salience = rule.salience_value();
        let schedule = self.kb.guard_schedule(rule_index);
        for (fact_ids, bindings) in self.match_rule(rule, schedule, stats) {
            let fired_key = (rule_index, fact_ids);
            if self.fired.contains(&fired_key) {
                continue;
            }
            let recency = fired_key.1.iter().copied().max().unwrap_or(FactId(0));
            self.agenda.insert(
                (Reverse(salience), Reverse(recency), rule_index, fired_key.1),
                bindings,
            );
        }
    }

    /// Joins the rule's patterns left-to-right, producing every consistent
    /// `(fact tuple, bindings)` combination that passes the guards.
    ///
    /// Each guard runs at its scheduled depth (see
    /// `KnowledgeBase::guard_schedule`): a partial tuple that fails it is
    /// dropped before the next join instead of being extended by every
    /// later pattern. A guard reads only variables bound by then, and
    /// later joins never rebind them, so it passes at its depth exactly
    /// when it would pass on the whole tuple.
    fn match_rule(
        &self,
        rule: &Rule,
        schedule: &[usize],
        stats: &mut RunStats,
    ) -> Vec<(Vec<FactId>, Bindings)> {
        let passes = |depth: usize, bindings: &Bindings| {
            rule.guards()
                .iter()
                .zip(schedule)
                .all(|(guard, &at)| at != depth || guard.eval(bindings))
        };
        let mut partial: Vec<(Vec<FactId>, Bindings)> = vec![(Vec::new(), Bindings::new())];
        partial.retain(|(_, bindings)| passes(0, bindings));
        for (depth, pattern) in (1..).zip(rule.patterns()) {
            if partial.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for (ids, bindings) in &partial {
                for (id, extended) in pattern.match_all(&self.wm, bindings) {
                    stats.match_attempts += 1;
                    // A fact may not satisfy two patterns of the same rule
                    // instance (set semantics for the tuple).
                    if ids.contains(&id) || !passes(depth, &extended) {
                        continue;
                    }
                    let mut tuple = ids.clone();
                    tuple.push(id);
                    next.push((tuple, extended));
                }
            }
            partial = next;
        }
        partial
    }

    fn fire(&mut self, key: AgendaKey, bindings: Bindings, outcome: &mut RunOutcome) {
        let (_, _, rule_index, fact_ids) = key;
        let kb = Arc::clone(&self.kb);
        let rule = kb
            .iter()
            .nth(rule_index)
            .expect("agenda refers to an existing rule");
        self.fired.insert((rule_index, fact_ids.clone()));
        outcome.stats.fired += 1;

        for effect in rule.effects() {
            match effect {
                Effect::Assert { .. } => {
                    if let Some(fact) = effect.instantiate(&bindings) {
                        let id = self.wm.insert(fact);
                        self.pending_added.push(id);
                        outcome.stats.asserted += 1;
                    }
                }
                Effect::Retract(pattern_index) => {
                    if let Some(id) = fact_ids.get(*pattern_index) {
                        if let Some(fact) = self.wm.retract(*id) {
                            self.pending_removed.push(fact);
                            outcome.stats.retracted += 1;
                        }
                    }
                }
                Effect::Emit {
                    severity,
                    device,
                    message,
                } => {
                    let device_text = device
                        .resolve(&bindings)
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "unknown".to_owned());
                    outcome.findings.push(Finding {
                        rule: rule.name().to_owned(),
                        device: device_text,
                        severity: *severity,
                        message: bindings.substitute(message),
                    });
                }
            }
        }
        // The delta sits in `pending_added`/`pending_removed` until the
        // next cycle's `integrate` — the TREAT re-match happens there,
        // lazily, so a truncated run does no work the naive engine
        // wouldn't. Stale agenda entries referencing retracted facts are
        // guaranteed to be purged before the next pick.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldPattern, Guard, GuardOp, Operand, Pattern, RuleSeverity, Term};

    fn emit_rule(name: &str, salience: i32, kind: &str) -> Rule {
        Rule::new(name)
            .salience(salience)
            .when(Pattern::new(kind).field("device", FieldPattern::Var("d".into())))
            .then(Effect::Emit {
                severity: RuleSeverity::Info,
                device: Operand::Var("d".into()),
                message: format!("{name} fired"),
            })
    }

    #[test]
    fn fires_once_per_fact_tuple() {
        let kb = KnowledgeBase::from_rules([emit_rule("r", 0, "obs")]);
        let mut engine = Engine::new(kb);
        engine.insert(Fact::new("obs").with("device", "a"));
        assert_eq!(engine.run().findings.len(), 1);
        // Re-running without new facts fires nothing (refraction).
        assert_eq!(engine.run().findings.len(), 0);
        // A new fact re-activates the rule once.
        engine.insert(Fact::new("obs").with("device", "b"));
        assert_eq!(engine.run().findings.len(), 1);
    }

    #[test]
    fn salience_orders_firing() {
        let kb =
            KnowledgeBase::from_rules([emit_rule("low", 1, "obs"), emit_rule("high", 10, "obs")]);
        let mut engine = Engine::new(kb);
        engine.insert(Fact::new("obs").with("device", "a"));
        let out = engine.run();
        assert_eq!(out.findings[0].rule, "high");
        assert_eq!(out.findings[1].rule, "low");
    }

    #[test]
    fn chained_assertion_triggers_downstream_rule() {
        let r1 = Rule::new("producer")
            .when(Pattern::new("obs").field("device", FieldPattern::Var("d".into())))
            .then(Effect::Assert {
                kind: "problem".into(),
                fields: vec![("device".into(), Operand::Var("d".into()))],
            });
        let r2 = emit_rule("consumer", 0, "problem");
        let mut engine = Engine::new(KnowledgeBase::from_rules([r1, r2]));
        engine.insert(Fact::new("obs").with("device", "x"));
        let out = engine.run();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "consumer");
        assert_eq!(out.stats.asserted, 1);
        assert_eq!(engine.memory().of_kind("problem").count(), 1);
    }

    #[test]
    fn retraction_removes_fact() {
        let rule = Rule::new("consume")
            .when(Pattern::new("token"))
            .then(Effect::Retract(0));
        let mut engine = Engine::new(KnowledgeBase::from_rules([rule]));
        engine.insert(Fact::new("token"));
        engine.insert(Fact::new("token"));
        let out = engine.run();
        assert_eq!(out.stats.retracted, 2);
        assert!(engine.memory().is_empty());
    }

    #[test]
    fn guards_block_activation() {
        let rule = Rule::new("threshold")
            .when(Pattern::new("obs").field("value", FieldPattern::Var("v".into())))
            .guard(Guard::new(
                Operand::Var("v".into()),
                GuardOp::Gt,
                Operand::Const(Term::from(50.0)),
            ))
            .then(Effect::Emit {
                severity: RuleSeverity::Warning,
                device: Operand::Const(Term::from("d")),
                message: "over".into(),
            });
        let mut engine = Engine::new(KnowledgeBase::from_rules([rule]));
        engine.insert(Fact::new("obs").with("value", 10.0));
        engine.insert(Fact::new("obs").with("value", 90.0));
        let out = engine.run();
        assert_eq!(out.findings.len(), 1);
    }

    #[test]
    fn multi_pattern_join_binds_across_facts() {
        // Correlate: same device reports high cpu AND low memory.
        let rule = Rule::new("correlated")
            .when(
                Pattern::new("cpu")
                    .field("device", FieldPattern::Var("d".into()))
                    .field("value", FieldPattern::Var("c".into())),
            )
            .when(
                Pattern::new("mem")
                    .field("device", FieldPattern::Var("d".into()))
                    .field("value", FieldPattern::Var("m".into())),
            )
            .guard(Guard::new(
                Operand::Var("c".into()),
                GuardOp::Gt,
                Operand::Const(Term::from(90.0)),
            ))
            .guard(Guard::new(
                Operand::Var("m".into()),
                GuardOp::Lt,
                Operand::Const(Term::from(100.0)),
            ))
            .then(Effect::Emit {
                severity: RuleSeverity::Critical,
                device: Operand::Var("d".into()),
                message: "cpu ?c / mem ?m".into(),
            });
        let mut engine = Engine::new(KnowledgeBase::from_rules([rule]));
        engine.insert(Fact::new("cpu").with("device", "a").with("value", 95.0));
        engine.insert(Fact::new("mem").with("device", "a").with("value", 50.0));
        // Device b has high cpu but plentiful memory: must not fire.
        engine.insert(Fact::new("cpu").with("device", "b").with("value", 95.0));
        engine.insert(Fact::new("mem").with("device", "b").with("value", 900.0));
        let out = engine.run();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].device, "a");
        assert_eq!(out.findings[0].message, "cpu 95 / mem 50");
    }

    #[test]
    fn same_fact_cannot_fill_two_patterns() {
        let rule = Rule::new("pair")
            .when(Pattern::new("x"))
            .when(Pattern::new("x"))
            .then(Effect::Emit {
                severity: RuleSeverity::Info,
                device: Operand::Const(Term::from("-")),
                message: "pair".into(),
            });
        let mut engine = Engine::new(KnowledgeBase::from_rules([rule]));
        engine.insert(Fact::new("x"));
        // Only one x: no (a,a) tuple allowed → no firing.
        assert_eq!(engine.run().findings.len(), 0);
        engine.insert(Fact::new("x"));
        // Two x facts: (a,b) and (b,a) are distinct tuples.
        assert_eq!(engine.run().findings.len(), 2);
    }

    #[test]
    fn cycle_limit_stops_runaway_rules() {
        // Rule asserts its own trigger forever.
        let rule = Rule::new("loop")
            .when(Pattern::new("t").field("n", FieldPattern::Var("n".into())))
            .then(Effect::Assert {
                kind: "t".into(),
                fields: vec![("n".into(), Operand::Var("n".into()))],
            });
        let mut engine = Engine::new(KnowledgeBase::from_rules([rule])).with_max_cycles(25);
        engine.insert(Fact::new("t").with("n", 0.0));
        let out = engine.run();
        assert!(out.truncated);
        assert_eq!(out.stats.cycles, 25);
    }

    #[test]
    fn reset_clears_memory_and_refraction() {
        let kb = KnowledgeBase::from_rules([emit_rule("r", 0, "obs")]);
        let mut engine = Engine::new(kb);
        engine.insert(Fact::new("obs").with("device", "a"));
        engine.run();
        engine.reset();
        assert!(engine.memory().is_empty());
        engine.insert(Fact::new("obs").with("device", "a"));
        assert_eq!(engine.run().findings.len(), 1);
    }

    #[test]
    fn a_reset_engine_reruns_the_same_inserts_identically() {
        let kb = KnowledgeBase::from_rules(
            crate::parse_rules(
                r#"
                rule "mark-hot" salience 3 { when cpu(device: ?d, value: ?v) if ?v > 90 then assert hot(device: ?d) }
                rule "hot-and-full" salience 2 {
                    when hot(device: ?d)
                    when disk(device: ?d, value: ?x)
                    if ?x > 50
                    then emit warning ?d "hot and full on ?d"
                }
                rule "pair" {
                    when cpu(device: ?a, value: ?x)
                    when cpu(device: ?b, value: ?y)
                    if ?a < ?b
                    then emit info ?a "?a and ?b"
                }
                rule "drop-cold" salience 1 { when cpu(device: ?d, value: 10) then retract 0 }
                "#,
            )
            .unwrap(),
        );
        let facts: Vec<Fact> = (0..12)
            .flat_map(|i| {
                let device = format!("d{}", i % 5);
                [
                    Fact::new("cpu")
                        .with("device", device.as_str())
                        .with("value", [95.0, 10.0, 40.0][i % 3]),
                    Fact::new("disk").with("device", device).with("value", 60.0),
                ]
            })
            .collect();
        let mut engine = Engine::new(kb.clone());
        let mut runs = Vec::new();
        for _ in 0..3 {
            engine.reset();
            engine.insert_all(facts.iter().cloned());
            let out = engine.run();
            runs.push((out.findings, out.stats, engine.memory().len()));
        }
        let mut fresh = Engine::new(kb);
        fresh.insert_all(facts);
        let out = fresh.run();
        assert!(!out.findings.is_empty() && out.stats.retracted > 0);
        let expected = (out.findings, out.stats, fresh.memory().len());
        for run in runs {
            assert_eq!(run, expected);
        }
    }

    #[test]
    fn recency_breaks_salience_ties() {
        let kb = KnowledgeBase::from_rules([
            emit_rule("first", 0, "obs"),
            emit_rule("second", 0, "alarm"),
        ]);
        let mut engine = Engine::new(kb);
        engine.insert(Fact::new("obs").with("device", "a"));
        engine.insert(Fact::new("alarm").with("device", "b"));
        let out = engine.run();
        // alarm fact is more recent → its rule fires first.
        assert_eq!(out.findings[0].rule, "second");
    }

    #[test]
    fn stats_count_match_attempts() {
        let kb = KnowledgeBase::from_rules([emit_rule("r", 0, "obs")]);
        let mut engine = Engine::new(kb);
        for i in 0..10 {
            engine.insert(Fact::new("obs").with("device", format!("d{i}")));
        }
        let out = engine.run();
        assert!(out.stats.match_attempts >= 10);
        assert_eq!(out.stats.fired, 10);
    }

    #[test]
    fn shared_knowledge_learn_is_copy_on_write() {
        let kb = Arc::new(KnowledgeBase::from_rules([emit_rule("r", 0, "obs")]));
        let mut a = Engine::shared(Arc::clone(&kb));
        let mut b = Engine::shared(Arc::clone(&kb));
        a.knowledge_mut().learn(emit_rule("extra", 0, "alarm"));
        assert_eq!(a.knowledge().len(), 2);
        // b and the original base are untouched.
        assert_eq!(b.knowledge().len(), 1);
        assert_eq!(kb.len(), 1);
        a.insert(Fact::new("alarm").with("device", "x"));
        b.insert(Fact::new("alarm").with("device", "x"));
        assert_eq!(a.run().findings.len(), 1);
        assert_eq!(b.run().findings.len(), 0);
    }

    #[test]
    fn a_view_runs_its_rules_only_and_follows_copy_on_write_learning() {
        let pair = Rule::new("pair")
            .when(Pattern::new("obs").field("device", FieldPattern::Var("a".into())))
            .when(Pattern::new("obs").field("device", FieldPattern::Var("b".into())))
            .then(Effect::Emit {
                severity: RuleSeverity::Info,
                device: Operand::Var("a".into()),
                message: "pair".into(),
            });
        let kb = Arc::new(KnowledgeBase::from_rules([
            emit_rule("single", 0, "obs"),
            pair,
        ]));
        let mut a = Engine::shared(Arc::clone(&kb));
        let b = Engine::shared(Arc::clone(&kb));
        let fired = |engine: &mut Engine, view: Option<View>| {
            engine.reset();
            if let Some(view) = view {
                engine.set_view(view);
            }
            engine.insert(Fact::new("obs").with("device", "x"));
            engine.insert(Fact::new("obs").with("device", "y"));
            let mut rules: Vec<String> =
                engine.run().findings.into_iter().map(|f| f.rule).collect();
            rules.sort();
            rules.dedup();
            rules
        };
        assert_eq!(fired(&mut a, Some(View::PerDevice)), ["single"]);
        assert_eq!(fired(&mut a, Some(View::Correlation)), ["pair"]);
        assert_eq!(fired(&mut Engine::shared(Arc::clone(&kb)), None).len(), 2);
        // Learning a single-pattern body under the join's name moves it
        // to the per-device view in this engine only.
        a.knowledge_mut().learn(emit_rule("pair", 5, "obs"));
        assert_eq!(fired(&mut a, Some(View::Correlation)), Vec::<String>::new());
        assert_eq!(fired(&mut a, Some(View::PerDevice)), ["pair", "single"]);
        assert_eq!(b.knowledge().view(View::Correlation).rules(), [1]);
    }

    #[test]
    fn learned_rule_applies_between_runs() {
        let kb = KnowledgeBase::from_rules([emit_rule("r", 0, "obs")]);
        let mut engine = Engine::new(kb);
        engine.insert(Fact::new("obs").with("device", "a"));
        assert_eq!(engine.run().findings.len(), 1);
        // Learning mid-stream: the new rule sees already-present facts but
        // refraction on the old rule still holds.
        engine.knowledge_mut().learn(emit_rule("extra", 0, "obs"));
        let out = engine.run();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "extra");
    }

    #[test]
    fn a_guarded_join_is_linear_in_the_facts() {
        // The grid's default level-3 rule: a threshold on each side of a
        // self-join over `cpu`.
        let kb = KnowledgeBase::from_rules(
            crate::parse_rules(
                r#"rule "correlated-cpu" salience 6 {
                    when cpu(device: ?a, value: ?x)
                    when cpu(device: ?b, value: ?y)
                    if ?x > 90
                    if ?y > 90
                    if ?a < ?b
                    then emit critical ?a "correlated cpu overload on ?a and ?b"
                }"#,
            )
            .unwrap(),
        );
        let n = 64;
        let mut engine = Engine::new(kb.clone());
        let mut naive = crate::NaiveEngine::new(kb);
        for i in 0..n {
            let value = if i == 17 { 95.0 } else { 40.0 };
            let fact = Fact::new("cpu")
                .with("device", format!("d{i:02}"))
                .with("value", value);
            engine.insert(fact.clone());
            naive.insert(fact);
        }
        let out = engine.run();
        let reference = naive.run();
        assert_eq!(out.findings, reference.findings);
        assert_eq!(out.stats.fired, reference.stats.fired);
        // The `?x > 90` guard drops 63 of the 64 first-pattern matches
        // before the second join: n + n attempts, not n + n².
        assert!(
            out.stats.match_attempts <= 2 * n,
            "{} attempts",
            out.stats.match_attempts
        );
        assert_eq!(reference.stats.match_attempts, n * n + n);
    }

    #[test]
    fn guards_run_at_the_depth_their_variables_are_bound() {
        let rule = |guard: Guard| {
            Rule::new(guard.to_string())
                .when(Pattern::new("a").field("x", FieldPattern::Var("x".into())))
                .when(Pattern::new("b").field("y", FieldPattern::Var("y".into())))
                .guard(guard)
        };
        let var = |name: &str| Operand::Var(name.into());
        let one = Operand::Const(Term::from(1.0));
        let kb = KnowledgeBase::from_rules([
            rule(Guard::new(one.clone(), GuardOp::Eq, one.clone())),
            rule(Guard::new(var("x"), GuardOp::Gt, one.clone())),
            rule(Guard::new(one, GuardOp::Lt, var("y"))),
            rule(Guard::new(var("y"), GuardOp::Ne, var("x"))),
            rule(Guard::new(var("unbound"), GuardOp::Eq, var("x"))),
        ]);
        let schedules: Vec<&[usize]> = (0..kb.len()).map(|i| kb.guard_schedule(i)).collect();
        assert_eq!(schedules, [&[0][..], &[1], &[2], &[2], &[2]]);
    }

    #[test]
    fn retraction_invalidates_pending_activations() {
        // High-salience rule retracts the token; the low-salience rule's
        // activation on the same token must vanish from the agenda.
        let eater = Rule::new("eater")
            .salience(10)
            .when(Pattern::new("token"))
            .then(Effect::Retract(0));
        let watcher = Rule::new("watcher")
            .salience(0)
            .when(Pattern::new("token"))
            .then(Effect::Emit {
                severity: RuleSeverity::Info,
                device: Operand::Const(Term::from("-")),
                message: "saw token".into(),
            });
        let mut engine = Engine::new(KnowledgeBase::from_rules([eater, watcher]));
        engine.insert(Fact::new("token"));
        let out = engine.run();
        assert_eq!(out.stats.retracted, 1);
        assert_eq!(out.findings.len(), 0);
    }
}
