// Package program defines the logical program model: atoms, rules,
// programs, the predicate dependency graph and the recursion taxonomy
// the paper's analysis is phrased in (nonrecursive, linear, nested
// linear, nonlinear, mutual). It also implements rectification (§2 of
// the paper): flattening functional terms such as [X|Xs] into cons/3
// literals so that a functional recursion can be analysed in the
// framework of a function-free one.
package program

import (
	"fmt"
	"strconv"
	"strings"

	"chainsplit/internal/builtin"
	"chainsplit/internal/term"
)

// Atom is a predicate applied to argument terms, e.g. parent(X, X1).
// A body atom may be negated (\+ p(X)), interpreted under stratified
// negation-as-failure.
type Atom struct {
	Pred    string
	Args    []term.Term
	Negated bool
}

// NewAtom constructs a positive atom.
func NewAtom(pred string, args ...term.Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Negate returns the negation of the atom.
func (a Atom) Negate() Atom {
	a.Negated = !a.Negated
	return a
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Key returns the predicate key "name/arity".
func (a Atom) Key() string { return a.Pred + "/" + strconv.Itoa(len(a.Args)) }

// SplitKey parses a predicate key "name/arity" (the form Atom.Key
// renders) back into its name and arity. The name is everything before
// the last '/', so names containing '/' round-trip; a key with no '/',
// an empty name, or an arity that is not a non-negative decimal integer
// is an error.
func SplitKey(key string) (pred string, arity int, err error) {
	i := strings.LastIndexByte(key, '/')
	digits := key[i+1:]
	if i > 0 && digits != "" && strings.Trim(digits, "0123456789") == "" {
		if arity, err = strconv.Atoi(digits); err == nil {
			return key[:i], arity, nil
		}
	}
	return "", 0, fmt.Errorf("program: malformed predicate key %q", key)
}

// IsBuiltin reports whether the atom calls an evaluable predicate.
func (a Atom) IsBuiltin() bool { return builtin.IsBuiltin(a.Pred, a.Arity()) }

// Ground reports whether all arguments are ground.
func (a Atom) Ground() bool {
	for _, t := range a.Args {
		if !t.Ground() {
			return false
		}
	}
	return true
}

// Vars returns the set of variable names occurring in the atom.
func (a Atom) Vars() map[string]bool { return term.VarSet(a.Args...) }

func (a Atom) String() string {
	prefix := ""
	if a.Negated {
		prefix = "\\+ "
	}
	if len(a.Args) == 0 {
		return prefix + a.Pred
	}
	// Render binary operators infix (the prefix form "=(0, 0)" is not
	// part of the grammar, so infix must be kept under negation too).
	if a.Arity() == 2 {
		switch a.Pred {
		case "=", "<", ">", "=<", ">=", "\\=":
			return fmt.Sprintf("%s%s %s %s", prefix, a.Args[0], a.Pred, a.Args[1])
		}
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s%s(%s)", prefix, a.Pred, strings.Join(parts, ", "))
}

// Rename returns the atom with variables renamed by r.
func (a Atom) Rename(r *term.Renamer) Atom {
	args := make([]term.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = r.Rename(t)
	}
	return Atom{Pred: a.Pred, Args: args, Negated: a.Negated}
}

// Rule is a Horn clause Head ← Body. Facts are rules with empty bodies
// and ground heads.
type Rule struct {
	Head Atom
	Body []Atom
}

// IsFact reports whether the rule is a ground fact.
func (r Rule) IsFact() bool { return len(r.Body) == 0 && r.Head.Ground() }

func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, b := range r.Body {
		parts[i] = b.String()
	}
	return fmt.Sprintf("%s :- %s.", r.Head.String(), strings.Join(parts, ", "))
}

// Rename returns the rule with all variables consistently renamed.
func (r Rule) Rename(rn *term.Renamer) Rule {
	rn.Reset()
	out := Rule{Head: r.Head.Rename(rn), Body: make([]Atom, len(r.Body))}
	for i, b := range r.Body {
		out.Body[i] = b.Rename(rn)
	}
	return out
}

// Pragma is a compiler directive, e.g. "@acyclic parent." or
// "@threshold split 2.0.".
type Pragma struct {
	Name string
	Args []term.Term
}

func (p Pragma) String() string {
	parts := make([]string, len(p.Args))
	for i, t := range p.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("@%s %s.", p.Name, strings.Join(parts, " "))
}

// Program is a set of rules and facts plus pragmas. Queries are kept
// separately by the callers that parse them.
type Program struct {
	Rules   []Rule
	Facts   []Atom
	Pragmas []Pragma
}

// AddRule appends a rule, routing ground-fact rules into Facts.
func (p *Program) AddRule(r Rule) {
	if r.IsFact() {
		p.Facts = append(p.Facts, r.Head)
		return
	}
	p.Rules = append(p.Rules, r)
}

// Clone returns a deep-enough copy (rules share term structure, which
// is immutable).
func (p *Program) Clone() *Program {
	c := &Program{
		Rules:   make([]Rule, len(p.Rules)),
		Facts:   make([]Atom, len(p.Facts)),
		Pragmas: make([]Pragma, len(p.Pragmas)),
	}
	copy(c.Rules, p.Rules)
	copy(c.Facts, p.Facts)
	copy(c.Pragmas, p.Pragmas)
	return c
}

// IDB returns the set of intensional predicate keys (those defined by
// at least one rule with a non-empty body, or by non-ground facts).
func (p *Program) IDB() map[string]bool {
	idb := make(map[string]bool)
	for _, r := range p.Rules {
		idb[r.Head.Key()] = true
	}
	return idb
}

// RulesFor returns the rules whose head predicate key equals key, in
// program order.
func (p *Program) RulesFor(key string) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Head.Key() == key {
			out = append(out, r)
		}
	}
	return out
}

func (p *Program) String() string {
	var b strings.Builder
	for _, pr := range p.Pragmas {
		b.WriteString(pr.String())
		b.WriteByte('\n')
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	return b.String()
}
