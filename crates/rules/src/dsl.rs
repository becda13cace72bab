//! A small textual DSL for writing analysis rules.
//!
//! The interface grid lets users "define new rules and goals" at runtime
//! (paper §3.4); this DSL is the concrete syntax those rules arrive in.
//!
//! # Grammar
//!
//! ```text
//! rules   := rule*
//! rule    := "rule" STRING ("salience" INT)? "{" clause* "}"
//! clause  := "when" pattern
//!          | "if" operand CMP operand
//!          | "then" effect
//! pattern := IDENT "(" [ field ("," field)* ] ")"
//! field   := IDENT ":" ( literal | "?" IDENT | "_" )
//! effect  := "emit" ("info"|"warning"|"critical") operand STRING
//!          | "assert" IDENT "(" [ IDENT ":" operand ("," ...)* ] ")"
//!          | "retract" INT
//! operand := literal | "?" IDENT
//! literal := NUMBER | STRING | "true" | "false"
//! CMP     := "<" | "<=" | ">" | ">=" | "==" | "!="
//! ```
//!
//! Line comments start with `#`.
//!
//! # Examples
//!
//! ```
//! use agentgrid_rules::parse_rules;
//!
//! let rules = parse_rules(r#"
//!     rule "disk-pressure" salience 3 {
//!         when obs(device: ?d, metric: "disk.used-pct", value: ?v)
//!         if ?v >= 85
//!         then emit warning ?d "disk ?v% full on ?d"
//!         then assert problem(device: ?d, kind: "disk")
//!     }
//! "#)?;
//! assert_eq!(rules.len(), 1);
//! assert_eq!(rules[0].name(), "disk-pressure");
//! # Ok::<(), agentgrid_rules::ParseRuleError>(())
//! ```

use std::fmt;

use crate::{Effect, FieldPattern, Guard, GuardOp, Operand, Pattern, Rule, RuleSeverity, Term};

/// Error produced when rule text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRuleError {
    message: String,
    line: usize,
}

impl ParseRuleError {
    /// 1-based line the error was detected on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseRuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseRuleError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Num(f64),
    Var(String),
    Punct(char),
    Cmp(GuardOp),
}

#[derive(Debug, Clone)]
struct Spanned {
    token: Token,
    line: usize,
}

fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseRuleError> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for n in chars.by_ref() {
                    if n == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' | '}' | '(' | ')' | ',' | ':' | '_' => {
                tokens.push(Spanned {
                    token: Token::Punct(c),
                    line,
                });
                chars.next();
            }
            '?' => {
                chars.next();
                let name = take_word(&mut chars);
                if name.is_empty() {
                    return Err(err(line, "`?` must be followed by a variable name"));
                }
                tokens.push(Spanned {
                    token: Token::Var(name),
                    line,
                });
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                while let Some(n) = chars.next() {
                    match n {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            other => return Err(err(line, format!("bad escape `\\{other:?}`"))),
                        },
                        '\n' => return Err(err(line, "newline inside string")),
                        n => s.push(n),
                    }
                }
                if !closed {
                    return Err(err(line, "unterminated string"));
                }
                tokens.push(Spanned {
                    token: Token::Str(s),
                    line,
                });
            }
            '<' | '>' | '=' | '!' => {
                chars.next();
                let two = chars.peek() == Some(&'=');
                let op = match (c, two) {
                    ('<', true) => GuardOp::Le,
                    ('<', false) => GuardOp::Lt,
                    ('>', true) => GuardOp::Ge,
                    ('>', false) => GuardOp::Gt,
                    ('=', true) => GuardOp::Eq,
                    ('!', true) => GuardOp::Ne,
                    _ => return Err(err(line, format!("unexpected `{c}`"))),
                };
                if two {
                    chars.next();
                }
                tokens.push(Spanned {
                    token: Token::Cmp(op),
                    line,
                });
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut text = String::new();
                text.push(c);
                chars.next();
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_digit() || n == '.' || n == 'e' || n == '-' || n == '+' {
                        text.push(n);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let value: f64 = text
                    .parse()
                    .map_err(|_| err(line, format!("bad number `{text}`")))?;
                tokens.push(Spanned {
                    token: Token::Num(value),
                    line,
                });
            }
            c if c.is_alphabetic() => {
                let word = take_word(&mut chars);
                tokens.push(Spanned {
                    token: Token::Ident(word),
                    line,
                });
            }
            other => return Err(err(line, format!("unexpected character `{other}`"))),
        }
    }
    Ok(tokens)
}

fn take_word(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> String {
    let mut word = String::new();
    while let Some(&n) = chars.peek() {
        if n.is_alphanumeric() || n == '-' || n == '_' || n == '.' {
            word.push(n);
            chars.next();
        } else {
            break;
        }
    }
    word
}

fn err(line: usize, message: impl Into<String>) -> ParseRuleError {
    ParseRuleError {
        message: message.into(),
        line,
    }
}

struct TokenStream {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl TokenStream {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |s| s.line)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseRuleError> {
        let line = self.line();
        match self.next() {
            Some(Token::Punct(p)) if p == c => Ok(()),
            other => Err(err(line, format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseRuleError> {
        let line = self.line();
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(err(line, format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_str(&mut self) -> Result<String, ParseRuleError> {
        let line = self.line();
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(err(line, format!("expected string, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseRuleError> {
        let line = self.line();
        match self.next() {
            Some(Token::Ident(s)) if s == kw => Ok(()),
            other => Err(err(line, format!("expected `{kw}`, found {other:?}"))),
        }
    }
}

/// Parses rule text into [`Rule`]s.
///
/// # Errors
///
/// Returns [`ParseRuleError`] with a line number on the first syntax
/// error.
pub fn parse_rules(input: &str) -> Result<Vec<Rule>, ParseRuleError> {
    let mut stream = TokenStream {
        tokens: tokenize(input)?,
        pos: 0,
    };
    let mut rules = Vec::new();
    while stream.peek().is_some() {
        rules.push(parse_rule(&mut stream)?);
    }
    Ok(rules)
}

fn parse_rule(s: &mut TokenStream) -> Result<Rule, ParseRuleError> {
    s.expect_keyword("rule")?;
    let name = s.expect_str()?;
    let mut rule = Rule::new(name);
    if s.peek() == Some(&Token::Ident("salience".to_owned())) {
        s.next();
        let line = s.line();
        match s.next() {
            Some(Token::Num(x)) => rule = rule.salience(x as i32),
            other => {
                return Err(err(
                    line,
                    format!("expected salience number, found {other:?}"),
                ))
            }
        }
    }
    s.expect_punct('{')?;
    loop {
        let line = s.line();
        match s.next() {
            Some(Token::Punct('}')) => break,
            Some(Token::Ident(kw)) => match kw.as_str() {
                "when" => {
                    rule = rule.when(parse_pattern(s)?);
                }
                "if" => {
                    let left = parse_operand(s)?;
                    let op_line = s.line();
                    let op = match s.next() {
                        Some(Token::Cmp(op)) => op,
                        other => {
                            return Err(err(
                                op_line,
                                format!("expected comparison operator, found {other:?}"),
                            ))
                        }
                    };
                    let right = parse_operand(s)?;
                    rule = rule.guard(Guard::new(left, op, right));
                }
                "then" => {
                    rule = rule.then(parse_effect(s)?);
                }
                other => {
                    return Err(err(
                        line,
                        format!("expected `when`, `if`, `then` or `}}`, found `{other}`"),
                    ))
                }
            },
            other => {
                return Err(err(
                    line,
                    format!("expected clause or `}}`, found {other:?}"),
                ))
            }
        }
    }
    Ok(rule)
}

fn parse_pattern(s: &mut TokenStream) -> Result<Pattern, ParseRuleError> {
    let kind = s.expect_ident()?;
    let mut pattern = Pattern::new(kind);
    s.expect_punct('(')?;
    if s.peek() == Some(&Token::Punct(')')) {
        s.next();
        return Ok(pattern);
    }
    loop {
        let field = s.expect_ident()?;
        s.expect_punct(':')?;
        let line = s.line();
        let fp = match s.next() {
            Some(Token::Var(v)) => FieldPattern::Var(v),
            Some(Token::Punct('_')) => FieldPattern::Any,
            Some(Token::Num(x)) => FieldPattern::Const(Term::Num(x)),
            Some(Token::Str(text)) => FieldPattern::Const(Term::from(text)),
            Some(Token::Ident(word)) if word == "true" => FieldPattern::Const(Term::Bool(true)),
            Some(Token::Ident(word)) if word == "false" => FieldPattern::Const(Term::Bool(false)),
            other => {
                return Err(err(
                    line,
                    format!("expected field pattern, found {other:?}"),
                ))
            }
        };
        pattern = pattern.field(field, fp);
        let line = s.line();
        match s.next() {
            Some(Token::Punct(',')) => continue,
            Some(Token::Punct(')')) => break,
            other => return Err(err(line, format!("expected `,` or `)`, found {other:?}"))),
        }
    }
    Ok(pattern)
}

fn parse_operand(s: &mut TokenStream) -> Result<Operand, ParseRuleError> {
    let line = s.line();
    match s.next() {
        Some(Token::Var(v)) => Ok(Operand::Var(v)),
        Some(Token::Num(x)) => Ok(Operand::Const(Term::Num(x))),
        Some(Token::Str(text)) => Ok(Operand::Const(Term::from(text))),
        Some(Token::Ident(word)) if word == "true" => Ok(Operand::Const(Term::Bool(true))),
        Some(Token::Ident(word)) if word == "false" => Ok(Operand::Const(Term::Bool(false))),
        other => Err(err(line, format!("expected operand, found {other:?}"))),
    }
}

fn parse_effect(s: &mut TokenStream) -> Result<Effect, ParseRuleError> {
    let line = s.line();
    let kw = s.expect_ident()?;
    match kw.as_str() {
        "emit" => {
            let severity_line = s.line();
            let severity = match s.next() {
                Some(Token::Ident(word)) => match word.as_str() {
                    "info" => RuleSeverity::Info,
                    "warning" => RuleSeverity::Warning,
                    "critical" => RuleSeverity::Critical,
                    other => return Err(err(severity_line, format!("unknown severity `{other}`"))),
                },
                other => {
                    return Err(err(
                        severity_line,
                        format!("expected severity, found {other:?}"),
                    ))
                }
            };
            let device = parse_operand(s)?;
            let message = s.expect_str()?;
            Ok(Effect::Emit {
                severity,
                device,
                message,
            })
        }
        "assert" => {
            let kind = s.expect_ident()?;
            s.expect_punct('(')?;
            let mut fields = Vec::new();
            if s.peek() == Some(&Token::Punct(')')) {
                s.next();
            } else {
                loop {
                    let field = s.expect_ident()?;
                    s.expect_punct(':')?;
                    fields.push((field, parse_operand(s)?));
                    let line = s.line();
                    match s.next() {
                        Some(Token::Punct(',')) => continue,
                        Some(Token::Punct(')')) => break,
                        other => {
                            return Err(err(line, format!("expected `,` or `)`, found {other:?}")))
                        }
                    }
                }
            }
            Ok(Effect::Assert { kind, fields })
        }
        "retract" => {
            let line = s.line();
            match s.next() {
                Some(Token::Num(x)) if x >= 0.0 && x.fract() == 0.0 => {
                    Ok(Effect::Retract(x as usize))
                }
                other => Err(err(
                    line,
                    format!("expected pattern index after `retract`, found {other:?}"),
                )),
            }
        }
        other => Err(err(line, format!("unknown effect `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_rule() {
        let rules = parse_rules(
            r#"
            rule "high-cpu" salience 10 {
                when obs(device: ?d, metric: "cpu.load", value: ?v)
                if ?v > 90
                then emit critical ?d "cpu overload on ?d (?v%)"
                then assert problem(device: ?d, kind: "cpu")
            }
            "#,
        )
        .unwrap();
        assert_eq!(rules.len(), 1);
        let r = &rules[0];
        assert_eq!(r.name(), "high-cpu");
        assert_eq!(r.salience_value(), 10);
        assert_eq!(r.patterns().len(), 1);
        assert_eq!(r.guards().len(), 1);
        assert_eq!(r.effects().len(), 2);
    }

    #[test]
    fn parses_multiple_rules_and_comments() {
        let rules = parse_rules(
            r#"
            # first
            rule "a" { when x(v: _) then retract 0 }
            # second
            rule "b" { when y(v: 1, ok: true, label: "z") }
            "#,
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[1].patterns()[0].fields().len(), 3);
    }

    #[test]
    fn parses_empty_pattern_and_negative_numbers() {
        let rules = parse_rules(r#"rule "n" { when tick() if -1 < 0 }"#).unwrap();
        assert_eq!(rules[0].patterns()[0].fields().len(), 0);
        assert!(rules[0].guards()[0].eval(&crate::Bindings::new()));
    }

    #[test]
    fn parses_all_comparison_operators() {
        let text = r#"
            rule "ops" {
                if 1 < 2
                if 1 <= 2
                if 2 > 1
                if 2 >= 1
                if 1 == 1
                if 1 != 2
            }
        "#;
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules[0].guards().len(), 6);
        for g in rules[0].guards() {
            assert!(g.eval(&crate::Bindings::new()), "{g}");
        }
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_rules("rule \"x\" {\n  bogus\n}").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(parse_rules(r#"rule "never ends"#).is_err());
    }

    #[test]
    fn rejects_unknown_severity() {
        let e = parse_rules(r#"rule "x" { then emit disaster ?d "m" }"#).unwrap_err();
        assert!(e.to_string().contains("disaster"));
    }

    #[test]
    fn rejects_fractional_retract_index() {
        assert!(parse_rules(r#"rule "x" { then retract 1.5 }"#).is_err());
    }

    #[test]
    fn parsed_rules_execute() {
        use crate::{Engine, Fact, KnowledgeBase};
        let kb = KnowledgeBase::from_rules(
            parse_rules(
                r#"
                rule "consume-and-report" {
                    when obs(device: ?d, value: ?v)
                    if ?v >= 10
                    then emit info ?d "saw ?v"
                    then retract 0
                }
                "#,
            )
            .unwrap(),
        );
        let mut engine = Engine::new(kb);
        engine.insert(Fact::new("obs").with("device", "d1").with("value", 12.0));
        engine.insert(Fact::new("obs").with("device", "d2").with("value", 5.0));
        let out = engine.run();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].message, "saw 12");
        assert_eq!(engine.memory().len(), 1);
    }
}
