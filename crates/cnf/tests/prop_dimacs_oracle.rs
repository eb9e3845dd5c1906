//! Differential fuzz test for the DIMACS reader.
//!
//! `oracle` below is the token-based parser the byte-level reader
//! replaced: it splits the text with `str::lines`, `str::trim` and
//! `str::split_ascii_whitespace`, and parses every token with
//! `str::parse`. On random text, `parse_cnf` and `parse_wcnf` must give
//! the oracle's formula or the oracle's error kind and line, and
//! `parse_maxsat` must give what the oracle gives for the dialect the
//! text's first tokens name. Round trips through the three writers
//! check the sniffing entry on well-formed text.
//!
//! `PROPTEST_CASES` scales the case count (CI runs an elevated pass).

use coremax_cnf::{dimacs, CnfFormula, Lit, ParseDimacsError, WcnfFormula, Weight, HARD_WEIGHT};
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES`.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512)
}

/// What `dimacs::parse_maxsat` must return: the oracle's CNF parse,
/// every clause soft at weight 1, when the first two tokens are `p cnf`,
/// and the oracle's WCNF parse otherwise.
fn oracle_maxsat(text: &str) -> Result<WcnfFormula, ParseDimacsError> {
    if oracle::opens_with_p_cnf(text) {
        oracle::parse_cnf(text).map(|f| WcnfFormula::from_cnf_all_soft(&f))
    } else {
        oracle::parse_wcnf(text)
    }
}

/// Asserts that every entry point agrees with the oracle on `text`.
fn agrees_with_oracle(text: &str) {
    assert_eq!(
        dimacs::parse_cnf(text),
        oracle::parse_cnf(text),
        "parse_cnf on {text:?}"
    );
    assert_eq!(
        dimacs::parse_wcnf(text),
        oracle::parse_wcnf(text),
        "parse_wcnf on {text:?}"
    );
    assert_eq!(
        dimacs::parse_maxsat(text),
        oracle_maxsat(text),
        "parse_maxsat on {text:?}"
    );
}

/// Draws pieces of text from a stream of random numbers. A clean
/// picker keeps to each pool's well-formed prefix, so that many texts
/// parse; a noisy one draws from whole pools.
struct Picker<'a> {
    draws: &'a [u32],
    next: usize,
    noisy: bool,
}

impl Picker<'_> {
    fn below(&mut self, n: u32) -> u32 {
        let d = self.draws.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        d % n
    }

    /// A piece of `pool`, whose first `clean` entries are well formed.
    fn pick<'p>(&mut self, (pool, clean): (&[&'p str], usize)) -> &'p str {
        let n = if self.noisy { pool.len() } else { clean };
        pool[self.below(n as u32) as usize]
    }
}

/// Gaps between tokens: spaces, tabs and line breaks, then whitespace
/// that `str::trim` strips and the token split keeps, and comment lines.
const GAPS: (&[&str], usize) = (
    &[
        " ",
        " ",
        " ",
        "  ",
        "\t",
        "\x0c",
        "\r",
        "\n",
        "\r\n",
        "\n\n",
        "\n   \n",
        "\nc comment\n",
        "\n%\n",
        "\x0b",
        "\u{a0}",
        " \u{a0}",
        "\n\u{a0}c note\n",
        "\n\x0b\n",
    ],
    13,
);

/// Gaps inside a header. A line may not start with its format token,
/// which would make the line a comment, so clean gaps stay on the line.
const HEADER_GAPS: (&[&str], usize) = (
    &[
        " ", " ", "\t", "\x0c", "  ", "\r", "\n", "\n\n", "\x0b", "\u{a0}", "\nc x\n", "\n%\n",
    ],
    5,
);

/// Line ends after a header or a clause.
const LINE_ENDS: (&[&str], usize) = (
    &["\n", "\n", "\r\n", " \n", " ", "\u{a0}\n", "\x0b\n", ""],
    5,
);

/// Format tokens after `p`.
const FORMATS: (&[&str], usize) = (&["cnf", "wcnf", "wcnf", "cnff", "WCNF", "p"], 3);

/// Header variable counts, up to one past the most a literal can name.
const VAR_COUNTS: (&[&str], usize) = (
    &[
        "3",
        "4",
        "6",
        "+3",
        "03",
        "2147483647",
        "0",
        "1",
        "2147483648",
        "4294967296",
        "-1",
        "x",
    ],
    6,
);

/// Header clause counts, up to `u64::MAX` and one past it.
const CLAUSE_COUNTS: (&[&str], usize) = (
    &[
        "4",
        "5",
        "8",
        "+6",
        "18446744073709551615",
        "0",
        "1",
        "2",
        "18446744073709551616",
        "x",
    ],
    5,
);

/// `top` weights; the empty string declares none.
const TOPS: (&[&str], usize) = (
    &[
        "",
        "5",
        "10",
        "18446744073709551615",
        "1",
        "0",
        "18446744073709551614",
        "18446744073709551616",
        "x",
    ],
    4,
);

/// Clause openers: weights around both ends of the range, and `h`.
const WEIGHTS: (&[&str], usize) = (
    &[
        "1",
        "2",
        "5",
        "10",
        "h",
        "+3",
        "007",
        "18446744073709551614",
        "0",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "x",
    ],
    8,
);

/// Literals: small ones in and out of a short header's range, signed
/// and zero-padded forms, tokens of nine and ten digits, the ends of the
/// `i32` range, and tokens holding other bytes.
const LITERALS: (&[&str], usize) = (
    &[
        "1",
        "-1",
        "2",
        "-2",
        "3",
        "-3",
        "+1",
        "01",
        "-002",
        "0000000001",
        "7",
        "-0",
        "+0",
        "999999999",
        "-1000000000",
        "2147483647",
        "-2147483647",
        "-2147483648",
        "2147483648",
        "x",
        "1-",
        "h",
        "\x01",
        "1\x7f",
        "-\u{e9}",
        "\u{e9}1",
    ],
    10,
);

/// Clause terminators.
const ZEROS: (&[&str], usize) = (&["0", "0", "-0", "00", "+0"], 5);

/// Builds a DIMACS-like text: an optional header, then clauses, each an
/// optional opener, literals and (usually) a terminating `0`.
fn build_text(draws: &[u32]) -> String {
    let mut p = Picker {
        draws,
        next: 1,
        noisy: draws.first().is_some_and(|d| d % 2 == 0),
    };
    let mut text = String::new();
    if p.below(4) == 0 {
        text.push_str(p.pick((&["c header comment\n", "%\n", "\n", "\u{a0}c\n"], 3)));
    }
    let mut format = None;
    if p.below(4) > 0 {
        text.push_str(p.pick((&["p", " p", "\tp", "\u{a0}p", "P"], 3)));
        text.push_str(p.pick(HEADER_GAPS));
        format = Some(p.pick(FORMATS));
        text.push_str(format.unwrap_or_default());
        for pool in [VAR_COUNTS, CLAUSE_COUNTS] {
            text.push_str(p.pick(HEADER_GAPS));
            text.push_str(p.pick(pool));
        }
        let top = p.pick(TOPS);
        if !top.is_empty() && (p.noisy || format == Some("wcnf")) {
            text.push_str(p.pick(HEADER_GAPS));
            text.push_str(top);
        }
        text.push_str(p.pick(LINE_ENDS));
    }
    for _ in 0..p.below(7) {
        // A clean CNF clause opens with a literal, any other with a
        // weight or `h`.
        let opener = if p.noisy {
            p.below(4) > 0
        } else {
            format != Some("cnf")
        };
        if opener {
            text.push_str(p.pick(WEIGHTS));
            text.push_str(p.pick(GAPS));
        }
        for _ in 0..p.below(4) {
            text.push_str(p.pick(LITERALS));
            text.push_str(p.pick(GAPS));
        }
        if p.below(10) > 0 {
            text.push_str(p.pick(ZEROS));
        }
        text.push_str(p.pick(LINE_ENDS));
    }
    text
}

fn arb_lits(max_var: i32) -> impl Strategy<Value = Vec<Lit>> {
    prop::collection::vec(
        (1..=max_var).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
        0..=5,
    )
    .prop_map(|ds| {
        ds.into_iter()
            .map(|d| Lit::from_dimacs(d).unwrap())
            .collect()
    })
}

/// Soft weights: small ones, and the largest a soft clause may carry.
fn arb_weight() -> impl Strategy<Value = Weight> {
    prop_oneof![1u64..20, Just(HARD_WEIGHT - 1), (1u64 << 40)..(1u64 << 62)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn noise_agrees_with_oracle(text in "[0-9+ \t\r\n\x0c\x0bpch%nfw\u{a0}-]{0,160}") {
        agrees_with_oracle(&text);
    }

    #[test]
    fn structured_text_agrees_with_oracle(draws in prop::collection::vec(any::<u32>(), 0..120)) {
        agrees_with_oracle(&build_text(&draws));
    }

    #[test]
    fn cnf_round_trips_as_all_soft(
        clauses in prop::collection::vec(arb_lits(12), 0..30),
        spare_vars in 0usize..4,
    ) {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c);
        }
        f.new_vars(spare_vars);
        let text = dimacs::write_cnf(&f);
        prop_assert_eq!(dimacs::parse_cnf(&text).unwrap(), f.clone());
        let w = dimacs::parse_maxsat(&text).unwrap();
        prop_assert_eq!(w.num_hard(), 0);
        prop_assert!(w.soft_clauses().all(|s| s.weight == 1));
        prop_assert_eq!(w, WcnfFormula::from_cnf_all_soft(&f));
    }

    #[test]
    fn wcnf_round_trips_through_both_writers(
        hard in prop::collection::vec(arb_lits(10), 0..10),
        soft in prop::collection::vec((arb_lits(10), arb_weight()), 0..15),
    ) {
        let mut w = WcnfFormula::new();
        for c in hard {
            w.add_hard(c);
        }
        for (c, weight) in soft {
            w.add_soft(c, weight);
        }
        for text in [dimacs::write_wcnf(&w), dimacs::write_wcnf_new(&w)] {
            prop_assert_eq!(dimacs::parse_maxsat(&text).unwrap(), w.clone());
            prop_assert_eq!(dimacs::parse_wcnf(&text).unwrap(), w.clone());
            agrees_with_oracle(&text);
        }
    }
}

#[test]
fn huge_header_counts_over_short_bodies() {
    // Headers can declare 2^31 - 1 variables and u64::MAX clauses in a
    // few bytes, and a headerless literal can name the two-billionth
    // variable; the reader sizes nothing from them beyond what the
    // text can hold.
    for text in [
        "h 1 2000000000 0\n",
        "p cnf 2147483647 18446744073709551615\n1 -2147483647 0\n",
        "p wcnf 2147483647 18446744073709551615 18446744073709551615\n18446744073709551615 2147483647 0\n7 -1 0\n",
        "p wcnf 2147483647 18446744073709551615\n3 -2147483647 0\n",
        "p cnf 2147483648 1\n1 0\n",
        "p cnf 2147483647 18446744073709551616\n1 0\n",
    ] {
        agrees_with_oracle(text);
    }
    let w = dimacs::parse_maxsat("p cnf 2147483647 18446744073709551615\n-2147483647 0\n").unwrap();
    assert_eq!(w.num_vars(), 2_147_483_647);
    assert_eq!(w.soft(0).clause.lits()[0].to_dimacs(), -2_147_483_647);
    let w = dimacs::parse_maxsat("h 1 2000000000 0\n").unwrap();
    assert_eq!((w.num_vars(), w.num_hard()), (2_000_000_000, 1));
}

#[test]
fn weight_and_literal_extremes_agree_with_oracle() {
    for weight in [
        "0",
        "18446744073709551614",
        "18446744073709551615",
        "18446744073709551616",
    ] {
        agrees_with_oracle(&format!("p wcnf 2 1 10\n{weight} 1 0\n"));
        agrees_with_oracle(&format!("p wcnf 2 1\n{weight} 1 0\n"));
        agrees_with_oracle(&format!("{weight} 1 0\n"));
    }
    for lit in [
        "2147483647",
        "-2147483647",
        "-2147483648",
        "2147483648",
        "-2147483649",
    ] {
        agrees_with_oracle(&format!("p cnf 2147483647 1\n{lit} 0\n"));
        agrees_with_oracle(&format!("p wcnf 3 1 9\n9 {lit} 0\n"));
        agrees_with_oracle(&format!("h {lit} 0\n"));
    }
}

#[test]
fn whitespace_that_trim_strips_agrees_with_oracle() {
    // `str::trim` strips a vertical tab or U+00A0 at a line's ends, and
    // the token split keeps them inside a line.
    for text in [
        "p cnf 2 1\n1 2 0\u{a0}\n",
        "p cnf 2 1\n1 2 0\x0b\n",
        "p cnf 2 1\n\u{a0}1 2 0\n",
        "p cnf 2 1\n1 2\u{a0}0\n",
        "p cnf 2 1\n1 \u{a0}2 0\n",
        "p cnf 2 1\n1 2\x0b 0\n",
        "\u{a0}c comment\np cnf 1 1\n1 0\n",
        "\x0bc comment\np cnf 1 1\n1 0\n",
        "\u{a0}\np cnf 1 1\n1 0 \u{a0} \x0b\n",
        "p wcnf 1 1 5\u{a0}\n5 1 0\n",
        "p wcnf 1 1\u{a0}\n5 1 0\n",
        "p wcnf 1 1 \u{a0}\n5 1 0\n",
        "h 1 0\u{2003}\n3 -1\u{3000}0\n",
        "p cnf 1 1\n1\u{85}0\n",
        "p cnf 1 1\n1 0\u{85}",
    ] {
        agrees_with_oracle(text);
    }
}

#[test]
fn error_lines_at_end_of_input_agree_with_oracle() {
    for text in [
        "",
        "\n",
        "c only\n",
        "p",
        "p\n\n",
        "p cnf",
        "p cnf 3 1\n1 2 3",
        "p cnf 3 1\n1 2 3\n",
        "p cnf 3 1\n1 2 3\n\n",
        "p wcnf 1 1 5\n3",
        "h 1 2",
        "p\ncnf 1 1\n1 0\n",
        "p\nwcnf 1 1 2\n2 1 0\n",
    ] {
        agrees_with_oracle(text);
    }
    let e = dimacs::parse_cnf("p cnf 3 1\n1 2 3").unwrap_err();
    assert_eq!(e.line, 2);
}

/// The token-based reader `dimacs` used before its byte-level scanner,
/// kept as the reference the scanner must match.
mod oracle {
    use coremax_cnf::{
        CnfFormula, Lit, ParseDimacsError, ParseDimacsErrorKind, Var, WcnfFormula, Weight,
        HARD_WEIGHT,
    };

    const MAX_VARS: usize = Var::MAX_INDEX as usize + 1;

    fn error(line: usize, kind: ParseDimacsErrorKind) -> ParseDimacsError {
        ParseDimacsError { line, kind }
    }

    /// Whether the first two tokens are `p cnf`.
    pub fn opens_with_p_cnf(text: &str) -> bool {
        let mut parser = Parser::new(text);
        parser.next_token() == Some("p") && parser.next_token() == Some("cnf")
    }

    pub fn parse_cnf(text: &str) -> Result<CnfFormula, ParseDimacsError> {
        let mut parser = Parser::new(text);
        let header = parser.read_header()?;
        if header.format != Format::Cnf {
            return Err(error(parser.header_line, ParseDimacsErrorKind::BadHeader));
        }
        let mut formula = CnfFormula::with_vars(header.num_vars);
        while let Some(clause) = parser.read_clause(header.num_vars, None)? {
            if formula.num_clauses() == header.num_clauses {
                return Err(error(parser.line, ParseDimacsErrorKind::TooManyClauses));
            }
            formula.add_clause(clause.lits);
        }
        Ok(formula)
    }

    pub fn parse_wcnf(text: &str) -> Result<WcnfFormula, ParseDimacsError> {
        if first_meaningful_token(text) != Some("p") {
            return parse_wcnf_new(text);
        }
        let mut parser = Parser::new(text);
        let header = parser.read_header()?;
        if header.format != Format::Wcnf {
            return Err(error(parser.header_line, ParseDimacsErrorKind::BadHeader));
        }
        let mut formula = WcnfFormula::with_vars(header.num_vars);
        let mut seen = 0usize;
        while let Some(clause) = parser.read_clause(header.num_vars, Some(header.top))? {
            if seen == header.num_clauses {
                return Err(error(parser.line, ParseDimacsErrorKind::TooManyClauses));
            }
            seen += 1;
            match clause.weight {
                Some(w) if Some(w) == header.top => formula.add_hard(clause.lits),
                Some(w) if w == HARD_WEIGHT => {
                    return Err(error(
                        parser.line,
                        ParseDimacsErrorKind::BadWeight(w.to_string()),
                    ));
                }
                Some(w) => formula.add_soft(clause.lits, w),
                None => unreachable!("wcnf clauses always carry a weight"),
            }
        }
        Ok(formula)
    }

    fn first_meaningful_token(text: &str) -> Option<&str> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('c') && !l.starts_with('%'))
            .find_map(|l| l.split_ascii_whitespace().next())
    }

    fn parse_wcnf_new(text: &str) -> Result<WcnfFormula, ParseDimacsError> {
        let mut parser = Parser::new(text);
        let mut formula = WcnfFormula::new();
        loop {
            let first = match parser.next_token() {
                Some(t) => t,
                None => return Ok(formula),
            };
            let weight: Option<Weight> = if first == "h" {
                None
            } else {
                let w: Weight = first.parse().map_err(|_| {
                    error(
                        parser.line,
                        ParseDimacsErrorKind::BadWeight(first.to_string()),
                    )
                })?;
                if w == 0 || w == HARD_WEIGHT {
                    return Err(error(
                        parser.line,
                        ParseDimacsErrorKind::BadWeight(first.to_string()),
                    ));
                }
                Some(w)
            };
            let mut lits = Vec::new();
            loop {
                let tok = match parser.next_token() {
                    Some(t) => t,
                    None => {
                        return Err(error(parser.line, ParseDimacsErrorKind::UnterminatedClause))
                    }
                };
                if !parser.push_lit(tok, MAX_VARS, &mut lits)? {
                    break;
                }
            }
            match weight {
                None => formula.add_hard(lits),
                Some(w) => formula.add_soft(lits, w),
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Format {
        Cnf,
        Wcnf,
    }

    struct Header {
        format: Format,
        num_vars: usize,
        num_clauses: usize,
        top: Option<Weight>,
    }

    struct ParsedClause {
        weight: Option<Weight>,
        lits: Vec<Lit>,
    }

    struct Parser<'a> {
        lines: std::str::Lines<'a>,
        tokens: Vec<&'a str>,
        pos: usize,
        line: usize,
        header_line: usize,
    }

    impl<'a> Parser<'a> {
        fn new(text: &'a str) -> Self {
            Parser {
                lines: text.lines(),
                tokens: Vec::new(),
                pos: 0,
                line: 0,
                header_line: 0,
            }
        }

        fn next_token(&mut self) -> Option<&'a str> {
            loop {
                if self.pos < self.tokens.len() {
                    let tok = self.tokens[self.pos];
                    self.pos += 1;
                    return Some(tok);
                }
                let line = self.lines.next()?;
                self.line += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
                    continue;
                }
                self.tokens = trimmed.split_ascii_whitespace().collect();
                self.pos = 0;
            }
        }

        fn read_header(&mut self) -> Result<Header, ParseDimacsError> {
            let tok = self
                .next_token()
                .ok_or_else(|| error(self.line, ParseDimacsErrorKind::BadHeader))?;
            self.header_line = self.line;
            if tok != "p" {
                return Err(error(self.line, ParseDimacsErrorKind::BadHeader));
            }
            let bad = |p: &Parser<'_>| error(p.line, ParseDimacsErrorKind::BadHeader);
            let fmt_tok = self.next_token().ok_or_else(|| bad(self))?;
            let format = match fmt_tok {
                "cnf" => Format::Cnf,
                "wcnf" => Format::Wcnf,
                _ => return Err(bad(self)),
            };
            let nv: usize = self
                .next_token()
                .ok_or_else(|| bad(self))?
                .parse()
                .map_err(|_| bad(self))?;
            if nv > MAX_VARS {
                return Err(bad(self));
            }
            let nc: usize = self
                .next_token()
                .ok_or_else(|| bad(self))?
                .parse()
                .map_err(|_| bad(self))?;
            let mut top = None;
            if format == Format::Wcnf && self.pos < self.tokens.len() {
                let t = self.tokens[self.pos];
                self.pos += 1;
                top = Some(t.parse().map_err(|_| {
                    error(self.line, ParseDimacsErrorKind::BadWeight(t.to_string()))
                })?);
            }
            Ok(Header {
                format,
                num_vars: nv,
                num_clauses: nc,
                top,
            })
        }

        fn read_clause(
            &mut self,
            num_vars: usize,
            wcnf_top: Option<Option<Weight>>,
        ) -> Result<Option<ParsedClause>, ParseDimacsError> {
            let first = match self.next_token() {
                Some(t) => t,
                None => return Ok(None),
            };
            let mut lits = Vec::new();
            let weight = if wcnf_top.is_some() {
                let w: Weight = first.parse().map_err(|_| {
                    error(
                        self.line,
                        ParseDimacsErrorKind::BadWeight(first.to_string()),
                    )
                })?;
                if w == 0 {
                    return Err(error(
                        self.line,
                        ParseDimacsErrorKind::BadWeight(first.to_string()),
                    ));
                }
                Some(w)
            } else {
                if !self.push_lit(first, num_vars, &mut lits)? {
                    return Ok(Some(ParsedClause { weight: None, lits }));
                }
                None
            };
            loop {
                let tok = match self.next_token() {
                    Some(t) => t,
                    None => return Err(error(self.line, ParseDimacsErrorKind::UnterminatedClause)),
                };
                if !self.push_lit(tok, num_vars, &mut lits)? {
                    return Ok(Some(ParsedClause { weight, lits }));
                }
            }
        }

        fn push_lit(
            &self,
            tok: &str,
            num_vars: usize,
            lits: &mut Vec<Lit>,
        ) -> Result<bool, ParseDimacsError> {
            let value: i32 = tok
                .parse()
                .map_err(|_| error(self.line, ParseDimacsErrorKind::BadLiteral(tok.to_string())))?;
            if value == 0 {
                return Ok(false);
            }
            if value.unsigned_abs() as usize > num_vars {
                return Err(error(
                    self.line,
                    ParseDimacsErrorKind::VariableOutOfRange(value),
                ));
            }
            let lit = Lit::from_dimacs(value).ok_or_else(|| {
                error(self.line, ParseDimacsErrorKind::BadLiteral(tok.to_string()))
            })?;
            lits.push(lit);
            Ok(true)
        }
    }
}
