//! Concrete syntax for delta programs.
//!
//! The textual form mirrors the paper's notation with `delta` spelled out:
//!
//! ```text
//! # rule (0) of Figure 2 — seed the deletion process
//! delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
//! delta Author(a, n) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).
//! ```
//!
//! * Atoms are `Name(term, …)`; a `delta ` prefix (or a `~` sigil) marks a
//!   delta atom.
//! * Terms are variables (identifiers), integers, `'quoted'` / `"quoted"`
//!   strings, or `_` (an anonymous variable, fresh at each occurrence).
//! * Comparisons use `=`, `!=` (or `<>`), `<`, `<=`, `>`, `>=`.
//! * Rules end with `.`; `#`, `//` and `%` start line comments.

use crate::ast::{Atom, CmpOp, Comparison, Program, Rule, Span, Term};
use crate::error::DatalogError;
use storage::Value;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Turnstile, // :-
    Op(CmpOp),
    Tilde, // delta sigil
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        // A leading UTF-8 byte-order mark is an encoding marker, not text.
        let src = src.strip_prefix('\u{feff}').unwrap_or(src);
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> DatalogError {
        DatalogError::Syntax {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    /// Advance one byte. Columns count characters: a UTF-8 continuation
    /// byte does not start a new column.
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if c & 0xC0 != 0x80 {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') | Some(b'%') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn tokenize(mut self) -> Result<Vec<Spanned>, DatalogError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b'~' => {
                    self.bump();
                    Tok::Tilde
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Turnstile
                    } else {
                        return Err(self.err("expected `:-`"));
                    }
                }
                b'=' => {
                    self.bump();
                    Tok::Op(CmpOp::Eq)
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Op(CmpOp::Ne)
                    } else {
                        return Err(self.err("expected `!=`"));
                    }
                }
                b'<' => {
                    self.bump();
                    match self.peek() {
                        Some(b'=') => {
                            self.bump();
                            Tok::Op(CmpOp::Le)
                        }
                        Some(b'>') => {
                            self.bump();
                            Tok::Op(CmpOp::Ne)
                        }
                        _ => Tok::Op(CmpOp::Lt),
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Op(CmpOp::Ge)
                    } else {
                        Tok::Op(CmpOp::Gt)
                    }
                }
                b'\'' | b'"' => {
                    let quote = c;
                    self.bump();
                    let start = self.pos;
                    loop {
                        match self.bump() {
                            None => return Err(self.err("unterminated string literal")),
                            Some(ch) if ch == quote => break,
                            Some(_) => {}
                        }
                    }
                    // Both ends sit next to an ASCII quote, so the slice is
                    // on character boundaries.
                    Tok::Str(self.text[start..self.pos - 1].to_owned())
                }
                b'-' | b'0'..=b'9' => {
                    let mut s = String::new();
                    if c == b'-' {
                        s.push('-');
                        self.bump();
                    }
                    while let Some(d) = self.peek() {
                        if d.is_ascii_digit() {
                            s.push(d as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if s == "-" {
                        return Err(self.err("expected digits after `-`"));
                    }
                    let v: i64 = s
                        .parse()
                        .map_err(|e| self.err(format!("bad integer `{s}`: {e}")))?;
                    Tok::Int(v)
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let mut s = String::new();
                    while let Some(d) = self.peek() {
                        if d.is_ascii_alphanumeric() || d == b'_' {
                            s.push(d as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                other => {
                    // Tokens, whitespace and comments end on ASCII bytes, so
                    // `pos` starts a character here.
                    let ch = self.text.get(self.pos..).and_then(|t| t.chars().next());
                    let ch = ch.unwrap_or(other as char);
                    return Err(self.err(format!("unexpected character `{ch}`")));
                }
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    fresh: u32,
}

impl Parser {
    fn err_at(&self, msg: impl Into<String>) -> DatalogError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|s| (s.line, s.col))
            .or_else(|| self.toks.last().map(|s| (s.line, s.col)))
            .unwrap_or((1, 1));
        DatalogError::Syntax {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), DatalogError> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err_at(format!("expected {what}"))),
        }
    }

    fn fresh_var(&mut self) -> Term {
        self.fresh += 1;
        Term::var(&format!("__anon{}", self.fresh))
    }

    /// Source position of the token at `pos`, for span recording.
    fn span_at(&self, pos: usize) -> Option<Span> {
        self.toks.get(pos).map(|s| Span {
            line: s.line,
            col: s.col,
        })
    }

    /// `delta`? Name `(` terms `)`; the `delta` may also be a `~` sigil.
    fn parse_atom(&mut self) -> Result<Atom, DatalogError> {
        let span = self.span_at(self.pos);
        let mut is_delta = false;
        match self.peek() {
            Some(Tok::Tilde) => {
                self.bump();
                is_delta = true;
            }
            Some(Tok::Ident(id)) if id.eq_ignore_ascii_case("delta") => {
                self.bump();
                is_delta = true;
            }
            _ => {}
        }
        let name = match self.bump() {
            Some(Tok::Ident(id)) => id,
            _ => return Err(self.err_at("expected relation name")),
        };
        self.expect(&Tok::LParen, "`(`")?;
        let mut terms = Vec::new();
        loop {
            let term = match self.bump() {
                Some(Tok::Ident(id)) if id == "_" => self.fresh_var(),
                Some(Tok::Ident(id)) => Term::var(&id),
                Some(Tok::Int(v)) => Term::Const(Value::Int(v)),
                Some(Tok::Str(s)) => Term::Const(Value::str(&s)),
                _ => return Err(self.err_at("expected term")),
            };
            terms.push(term);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(self.err_at("expected `,` or `)`")),
            }
        }
        Ok(Atom {
            relation: name,
            is_delta,
            terms,
            span,
        })
    }

    fn parse_term(&mut self) -> Result<Term, DatalogError> {
        match self.bump() {
            Some(Tok::Ident(id)) if id == "_" => Ok(self.fresh_var()),
            Some(Tok::Ident(id)) => Ok(Term::var(&id)),
            Some(Tok::Int(v)) => Ok(Term::Const(Value::Int(v))),
            Some(Tok::Str(s)) => Ok(Term::Const(Value::str(&s))),
            _ => Err(self.err_at("expected term")),
        }
    }

    /// Lookahead: does a body item start an atom (`[delta] Name (`)?
    fn at_atom(&self) -> bool {
        match self.peek() {
            Some(Tok::Tilde) => true,
            Some(Tok::Ident(id)) => {
                let next = if id.eq_ignore_ascii_case("delta") {
                    // `delta Name(` — atom; `delta <op>` would be a variable
                    // named "delta" in a comparison, which we disallow for
                    // clarity.
                    return true;
                } else {
                    self.toks.get(self.pos + 1).map(|s| &s.tok)
                };
                matches!(next, Some(Tok::LParen))
            }
            _ => false,
        }
    }

    /// The comma-separated list of atoms and comparisons shared by rule
    /// bodies and denial constraints, terminated by `.`, end of input, or
    /// the start of the next rule.
    fn parse_body_items(&mut self) -> Result<(Vec<Atom>, Vec<Comparison>), DatalogError> {
        let mut body = Vec::new();
        let mut comparisons = Vec::new();
        loop {
            if self.at_atom() {
                body.push(self.parse_atom()?);
            } else {
                let lhs = self.parse_term()?;
                let op = match self.bump() {
                    Some(Tok::Op(op)) => op,
                    _ => return Err(self.err_at("expected comparison operator")),
                };
                let rhs = self.parse_term()?;
                comparisons.push(Comparison { lhs, op, rhs });
            }
            match self.peek() {
                Some(Tok::Comma) => {
                    self.bump();
                }
                Some(Tok::Dot) => {
                    self.bump();
                    break;
                }
                None => break,
                Some(Tok::Ident(_)) | Some(Tok::Tilde) => {
                    // Next rule begins without a terminating dot — accept it.
                    break;
                }
                _ => return Err(self.err_at("expected `,` or `.`")),
            }
        }
        Ok((body, comparisons))
    }

    fn parse_rule(&mut self) -> Result<Rule, DatalogError> {
        let span = self.span_at(self.pos);
        let head = self.parse_atom()?;
        self.expect(&Tok::Turnstile, "`:-`")?;
        let (body, comparisons) = self.parse_body_items()?;
        let mut rule = Rule::new(head, body, comparisons);
        rule.span = span;
        Ok(rule)
    }

    fn parse_program(&mut self) -> Result<Program, DatalogError> {
        let mut rules = Vec::new();
        while self.peek().is_some() {
            rules.push(self.parse_rule()?);
        }
        Ok(Program::new(rules))
    }
}

/// Parse a delta program from text. Well-formedness against a schema is a
/// separate step ([`crate::validate::validate_program`]).
pub fn parse_program(src: &str) -> Result<Program, DatalogError> {
    let toks = Lexer::new(src).tokenize()?;
    Parser {
        toks,
        pos: 0,
        fresh: 0,
    }
    .parse_program()
}

/// Parse a headless body — a comma-separated list of atoms and comparisons
/// with an optional leading `:-` and optional trailing `.`. This is the
/// concrete syntax for denial constraints ([`crate::dc`]).
pub fn parse_body(src: &str) -> Result<(Vec<Atom>, Vec<Comparison>), DatalogError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser {
        toks,
        pos: 0,
        fresh: 0,
    };
    if p.peek() == Some(&Tok::Turnstile) {
        p.bump();
    }
    let items = p.parse_body_items()?;
    if p.peek().is_some() {
        return Err(p.err_at("unexpected input after the constraint body"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_program_parses() {
        let src = r#"
            # Figure 2 of the paper
            delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
            delta Author(a, n) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).
            delta Pub(p, t) :- Pub(p, t), Writes(a, p), delta Author(a, n).
            delta Writes(a, p) :- Pub(p, t), Writes(a, p), delta Author(a, n).
            delta Cite(c, p) :- Cite(c, p), delta Pub(p, t), Writes(a1, c), Writes(a2, p).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.len(), 5);
        assert!(p.rules[0].head.is_delta);
        assert_eq!(p.rules[0].head.relation, "Grant");
        assert_eq!(p.rules[1].body.len(), 3);
        assert!(p.rules[1].body[2].is_delta);
        assert_eq!(p.rules[0].comparisons.len(), 1);
        assert!(crate::lint::recursion_diagnostic(&p).is_none());
    }

    #[test]
    fn tilde_sigil_and_operators() {
        let p =
            parse_program("~A(x) :- A(x), B(x, y), x < 5, y >= 2, x != y, y <> x, x <= 9, y > 0.")
                .unwrap();
        assert_eq!(p.rules[0].comparisons.len(), 6);
        assert_eq!(p.rules[0].comparisons[0].op, CmpOp::Lt);
        assert_eq!(p.rules[0].comparisons[3].op, CmpOp::Ne);
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let p = parse_program("delta A(x) :- A(x), B(_, _).").unwrap();
        let b = &p.rules[0].body[1];
        assert_ne!(b.terms[0], b.terms[1]);
    }

    #[test]
    fn string_constants_both_quotes() {
        let p = parse_program(r#"delta A(x) :- A(x), x = 'ERC', x = "NSF"."#).unwrap();
        assert_eq!(p.rules[0].comparisons.len(), 2);
    }

    #[test]
    fn non_ascii_string_constants_keep_their_characters() {
        let p = parse_program("delta Grant(g, n) :- Grant(g, n), n = 'Zürich'.").unwrap();
        assert_eq!(
            p.rules[0].comparisons[0].rhs,
            Term::Const(Value::str("Zürich"))
        );
    }

    #[test]
    fn unexpected_character_error_names_the_whole_character() {
        let err = parse_program("∆ A(x) :- A(x).").unwrap_err();
        assert!(
            err.to_string().contains("unexpected character `∆`"),
            "{err}"
        );
        // Columns count characters, not bytes.
        let err = parse_program("delta A(x) :- A(x), x = 'ü', ∆").unwrap_err();
        assert!(
            matches!(
                err,
                DatalogError::Syntax {
                    line: 1,
                    col: 30,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn negative_integers() {
        let p = parse_program("delta A(x) :- A(x), x > -10.").unwrap();
        assert_eq!(p.rules[0].comparisons[0].rhs, Term::Const(Value::Int(-10)));
    }

    #[test]
    fn missing_turnstile_is_a_syntax_error() {
        let err = parse_program("delta A(x) A(x).").unwrap_err();
        assert!(matches!(err, DatalogError::Syntax { .. }));
    }

    #[test]
    fn unterminated_string_is_a_syntax_error() {
        let err = parse_program("delta A(x) :- A(x), x = 'oops.").unwrap_err();
        assert!(matches!(err, DatalogError::Syntax { .. }));
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program("// c1\n% c2\n# c3\ndelta A(x) :- A(x). # trailing\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn rules_without_final_dot() {
        let p = parse_program("delta A(x) :- A(x)").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn display_reparses() {
        let src = "delta Cite(c, p) :- Cite(c, p), delta Pub(p, t), Writes(a1, c), p < 100.";
        let p = parse_program(src).unwrap();
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, p2);
    }
}
