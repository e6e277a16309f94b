package lang

import (
	"fmt"
	"strconv"

	"chainsplit/internal/program"
	"chainsplit/internal/term"
)

// Query is a conjunctive query: the goals of a ?- clause.
type Query struct {
	Goals []program.Atom
	Line  int
}

func (q Query) String() string {
	s := "?- "
	for i, g := range q.Goals {
		if i > 0 {
			s += ", "
		}
		s += g.String()
	}
	return s + "."
}

// Result bundles everything parsed from one source unit.
type Result struct {
	Program *program.Program
	Queries []Query
}

type parser struct {
	toks []token
	pos  int
	// anon numbers the anonymous variables of the current clause, query
	// or pragma.
	anon int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(text string) error {
	t := p.peek()
	if t.kind != tokPunct || t.text != text {
		return p.errf(t, "expected %q, found %s", text, t)
	}
	p.advance()
	return nil
}

// Parse parses a complete source unit: rules, facts, queries, pragmas.
func Parse(src string) (*Result, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	res := &Result{Program: &program.Program{}}
	for {
		t := p.peek()
		p.anon = 0
		switch {
		case t.kind == tokEOF:
			return res, nil
		case t.kind == tokPunct && t.text == "@":
			p.advance()
			pragma, err := p.parsePragma()
			if err != nil {
				return nil, err
			}
			res.Program.Pragmas = append(res.Program.Pragmas, pragma)
		case t.kind == tokPunct && t.text == "?-":
			p.advance()
			goals, err := p.parseGoalList()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("."); err != nil {
				return nil, err
			}
			res.Queries = append(res.Queries, Query{Goals: goals, Line: t.line})
		default:
			rule, err := p.parseClause()
			if err != nil {
				return nil, err
			}
			res.Program.AddRule(rule)
		}
	}
}

// ParseQuery parses a single goal list, with or without the leading ?-
// and trailing period, e.g. "sg(ann, Y)" or "?- sg(ann, Y).".
func ParseQuery(src string) (Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return Query{}, err
	}
	p := &parser{toks: toks}
	if t := p.peek(); t.kind == tokPunct && t.text == "?-" {
		p.advance()
	}
	goals, err := p.parseGoalList()
	if err != nil {
		return Query{}, err
	}
	if t := p.peek(); t.kind == tokPunct && t.text == "." {
		p.advance()
	}
	if t := p.peek(); t.kind != tokEOF {
		return Query{}, p.errf(t, "unexpected %s after query", t)
	}
	return Query{Goals: goals}, nil
}

// ParseTerm parses a single term, e.g. "[5,7,1]".
func ParseTerm(src string) (term.Term, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if tk := p.peek(); tk.kind != tokEOF {
		return nil, p.errf(tk, "unexpected %s after term", tk)
	}
	return t, nil
}

func (p *parser) parsePragma() (program.Pragma, error) {
	t := p.peek()
	if t.kind != tokAtom {
		return program.Pragma{}, p.errf(t, "expected pragma name, found %s", t)
	}
	p.advance()
	pragma := program.Pragma{Name: t.text}
	for {
		nt := p.peek()
		if nt.kind == tokPunct && nt.text == "." {
			p.advance()
			return pragma, nil
		}
		if nt.kind == tokEOF {
			return program.Pragma{}, p.errf(nt, "unterminated pragma @%s", pragma.Name)
		}
		arg, err := p.parseTerm()
		if err != nil {
			return program.Pragma{}, err
		}
		pragma.Args = append(pragma.Args, arg)
	}
}

func (p *parser) parseClause() (program.Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return program.Rule{}, err
	}
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == ".":
		p.advance()
		return program.Rule{Head: head}, nil
	case t.kind == tokPunct && t.text == ":-":
		p.advance()
		body, err := p.parseGoalList()
		if err != nil {
			return program.Rule{}, err
		}
		if err := p.expectPunct("."); err != nil {
			return program.Rule{}, err
		}
		return program.Rule{Head: head, Body: body}, nil
	default:
		return program.Rule{}, p.errf(t, "expected '.' or ':-', found %s", t)
	}
}

func (p *parser) parseGoalList() ([]program.Atom, error) {
	var goals []program.Atom
	for {
		g, err := p.parseGoal()
		if err != nil {
			return nil, err
		}
		goals = append(goals, g)
		t := p.peek()
		if t.kind == tokPunct && t.text == "," {
			p.advance()
			continue
		}
		return goals, nil
	}
}

// parseGoal parses an atom, an infix builtin application (T1 op T2
// with op in =, <, >, =<, >=, \=), or a negated goal (\+ G).
func (p *parser) parseGoal() (program.Atom, error) {
	if t := p.peek(); t.kind == tokPunct && t.text == "\\+" {
		p.advance()
		inner, err := p.parseGoal()
		if err != nil {
			return program.Atom{}, err
		}
		if inner.Negated {
			return program.Atom{}, p.errf(t, "double negation is not supported")
		}
		return inner.Negate(), nil
	}
	// An atom-headed goal may still be followed by an infix operator
	// (e.g. X = Y where X is a variable), so parse a term first and
	// decide.
	start := p.peek()
	left, err := p.parseTerm()
	if err != nil {
		return program.Atom{}, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "<", ">", "=<", ">=", "\\=":
			p.advance()
			right, err := p.parseTerm()
			if err != nil {
				return program.Atom{}, err
			}
			return program.NewAtom(t.text, left, right), nil
		}
	}
	// Otherwise the term itself must be a predicate application or a
	// plain symbol (zero-argument predicate).
	switch lt := left.(type) {
	case term.Comp:
		if lt.Functor == term.ConsFunctor {
			return program.Atom{}, p.errf(start, "a list is not a goal")
		}
		return program.Atom{Pred: lt.Functor, Args: lt.Args}, nil
	case term.Sym:
		return program.Atom{Pred: lt.Name}, nil
	default:
		return program.Atom{}, p.errf(start, "expected a goal, found term %s", left)
	}
}

func (p *parser) parseAtom() (program.Atom, error) {
	g, err := p.parseGoal()
	return g, err
}

func (p *parser) parseTerm() (term.Term, error) {
	t := p.peek()
	switch {
	case t.kind == tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "bad integer %q", t.text)
		}
		return term.NewInt(v), nil
	case t.kind == tokStr:
		p.advance()
		return term.NewStr(t.text), nil
	case t.kind == tokVar && t.text == "_":
		p.advance()
		p.anon++
		return term.Anon(p.anon), nil
	case t.kind == tokVar:
		p.advance()
		return term.NewVar(t.text), nil
	case t.kind == tokAtom:
		p.advance()
		nt := p.peek()
		if nt.kind == tokPunct && nt.text == "(" {
			p.advance()
			var args []term.Term
			for {
				a, err := p.parseTerm()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				sep := p.peek()
				if sep.kind == tokPunct && sep.text == "," {
					p.advance()
					continue
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return term.NewComp(t.text, args...), nil
			}
		}
		return term.NewSym(t.text), nil
	case t.kind == tokPunct && t.text == "[":
		p.advance()
		return p.parseListTail()
	default:
		return nil, p.errf(t, "expected a term, found %s", t)
	}
}

// parseListTail parses the remainder of a list after '['.
func (p *parser) parseListTail() (term.Term, error) {
	t := p.peek()
	if t.kind == tokPunct && t.text == "]" {
		p.advance()
		return term.EmptyList, nil
	}
	var elems []term.Term
	for {
		e, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		sep := p.peek()
		switch {
		case sep.kind == tokPunct && sep.text == ",":
			p.advance()
		case sep.kind == tokPunct && sep.text == "|":
			p.advance()
			tail, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			var out term.Term = tail
			for i := len(elems) - 1; i >= 0; i-- {
				out = term.Cons(elems[i], out)
			}
			return out, nil
		case sep.kind == tokPunct && sep.text == "]":
			p.advance()
			return term.List(elems...), nil
		default:
			return nil, p.errf(sep, "expected ',', '|' or ']' in list, found %s", sep)
		}
	}
}
