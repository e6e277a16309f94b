// Package term implements the term algebra underlying the deductive
// database: constants (symbols, integers, strings), logic variables and
// compound terms (functor applications, including lists built from cons
// cells). It also provides substitutions and unification, which the
// top-down engine and the rectifier depend on.
//
// Terms are immutable once constructed. Ground terms (no variables) are
// the values stored in relations; non-ground terms appear only inside
// rules and during evaluation.
package term

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the concrete term types.
type Kind uint8

// The term kinds, in canonical order (used by Compare).
const (
	KindVar Kind = iota
	KindInt
	KindSym
	KindStr
	KindComp
)

func (k Kind) String() string {
	switch k {
	case KindVar:
		return "var"
	case KindInt:
		return "int"
	case KindSym:
		return "sym"
	case KindStr:
		return "str"
	case KindComp:
		return "comp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Term is the interface implemented by every term.
//
// Implementations are small immutable values; they are safe to share
// between goroutines.
type Term interface {
	// Kind reports the concrete kind of the term.
	Kind() Kind
	// Ground reports whether the term contains no variables.
	Ground() bool
	// String renders the term in the surface syntax of the language.
	String() string
	// appendKey appends the encoding behind Key and AppendKey.
	appendKey(dst []byte) []byte
}

// Var is a logic variable. Two variables are the same variable iff their
// names are equal; fresh variables are generated with Rename.
type Var struct{ Name string }

// NewVar returns a variable with the given name.
func NewVar(name string) Var { return Var{Name: name} }

// anonPrefix starts the name of every anonymous variable. No source
// identifier contains '#', so no named variable can share the name.
const anonPrefix = "_#"

// Anon returns the n-th anonymous variable of a clause: each `_` of
// the source is its own variable, and it prints back as `_`.
func Anon(n int) Var { return Var{Name: anonPrefix + strconv.Itoa(n)} }

// Anonymous reports whether v stands for a `_` of the source.
func (v Var) Anonymous() bool { return strings.HasPrefix(v.Name, anonPrefix) }

// Kind implements Term.
func (v Var) Kind() Kind { return KindVar }

// Ground implements Term.
func (v Var) Ground() bool { return false }

func (v Var) String() string {
	if v.Anonymous() {
		return "_"
	}
	return v.Name
}

func (v Var) appendKey(dst []byte) []byte {
	dst = append(dst, 'V')
	dst = append(dst, v.Name...)
	return append(dst, 0)
}

// Sym is a symbolic constant (an atom in logic-programming parlance),
// e.g. ottawa or [] (the empty list).
type Sym struct {
	Name string
	// id is the dictionary code, set at construction (see intern.go).
	id ID
}

// NewSym returns the symbolic constant with the given name. Like every
// constant and ground compound it is hash-consed: constructing it
// interns its name, so its ID is a field read from then on. NewSym is
// the only constructor of Sym, so == on symbols compares like values.
func NewSym(name string) Sym { return Sym{Name: name, id: makeID(tagSym, symTab.intern([]byte(name)))} }

// Kind implements Term.
func (s Sym) Kind() Kind { return KindSym }

// Ground implements Term.
func (s Sym) Ground() bool { return true }

func (s Sym) String() string { return s.Name }

func (s Sym) appendKey(dst []byte) []byte {
	dst = append(dst, 'S')
	dst = append(dst, s.Name...)
	return append(dst, 0)
}

// Int is an integer constant.
type Int struct{ V int64 }

// NewInt returns the integer constant v.
func NewInt(v int64) Int { return Int{V: v} }

// Kind implements Term.
func (i Int) Kind() Kind { return KindInt }

// Ground implements Term.
func (i Int) Ground() bool { return true }

func (i Int) String() string { return strconv.FormatInt(i.V, 10) }

func (i Int) appendKey(dst []byte) []byte {
	dst = append(dst, 'I')
	dst = strconv.AppendInt(dst, i.V, 10)
	return append(dst, 0)
}

// Str is a string constant (double-quoted in the surface syntax).
type Str struct {
	V string
	// id is the dictionary code, set at construction (see intern.go).
	id ID
}

// NewStr returns the string constant v, interned as NewSym interns a
// symbol. NewStr is the only constructor of Str.
func NewStr(v string) Str { return Str{V: v, id: makeID(tagStr, strTab.intern([]byte(v)))} }

// Kind implements Term.
func (s Str) Kind() Kind { return KindStr }

// Ground implements Term.
func (s Str) Ground() bool { return true }

// String quotes with exactly the escapes the language grammar accepts
// (\" \\ \n \t); all other bytes pass through raw, so any string value
// round-trips through print-and-parse.
func (s Str) String() string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s.V); i++ {
		switch c := s.V[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func (s Str) appendKey(dst []byte) []byte {
	dst = append(dst, 'Q')
	dst = append(dst, s.V...)
	return append(dst, 0)
}

// Comp is a compound term: a functor applied to one or more arguments.
// Lists are compound terms with functor ConsFunctor and two arguments
// (head and tail), terminated by EmptyList.
type Comp struct {
	Functor string
	Args    []Term
	ground  bool
	// id caches the dictionary code of a ground compound, computed at
	// construction (see intern.go); 0 iff the compound is non-ground.
	id ID
}

// ConsFunctor is the functor of list cells; [H|T] is '.'(H, T).
const ConsFunctor = "."

// EmptyList is the empty-list constant [].
var EmptyList = NewSym("[]")

// NewComp returns the compound term functor(args...). It panics if args
// is empty: zero-argument applications are symbols, not compounds.
func NewComp(functor string, args ...Term) Comp {
	if len(args) == 0 {
		panic("term: NewComp requires at least one argument; use NewSym")
	}
	g := true
	for _, a := range args {
		if !a.Ground() {
			g = false
			break
		}
	}
	cp := make([]Term, len(args))
	copy(cp, args)
	c := Comp{Functor: functor, Args: cp, ground: g}
	if g {
		// Hash-cons ground compounds: interning here makes every later
		// identity operation (tuple keys, index probes, Contains) a
		// field read instead of a canonical-string build. NewComp is
		// the only constructor of Comp, so id != 0 iff the compound is
		// ground; Equal, Unify, occurs, Rename and Key rely on it.
		if c.id = internComp(&c); c.id == 0 {
			panic("term: ground compound interned to ID 0")
		}
	}
	return c
}

// Cons returns the list cell [head|tail].
func Cons(head, tail Term) Comp { return NewComp(ConsFunctor, head, tail) }

// List builds a proper list from the given elements.
func List(elems ...Term) Term {
	var t Term = EmptyList
	for i := len(elems) - 1; i >= 0; i-- {
		t = Cons(elems[i], t)
	}
	return t
}

// IntList builds a proper list of integer constants.
func IntList(vs ...int64) Term {
	elems := make([]Term, len(vs))
	for i, v := range vs {
		elems[i] = NewInt(v)
	}
	return List(elems...)
}

// Kind implements Term.
func (c Comp) Kind() Kind { return KindComp }

// Ground implements Term.
func (c Comp) Ground() bool { return c.ground }

func (c Comp) String() string {
	if c.Functor == ConsFunctor && len(c.Args) == 2 {
		return listString(c)
	}
	var b strings.Builder
	b.WriteString(c.Functor)
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

func listString(c Comp) string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(c.Args[0].String())
	t := c.Args[1]
	for {
		switch tt := t.(type) {
		case Sym:
			if tt == EmptyList {
				b.WriteByte(']')
				return b.String()
			}
			b.WriteByte('|')
			b.WriteString(tt.String())
			b.WriteByte(']')
			return b.String()
		case Comp:
			if tt.Functor == ConsFunctor && len(tt.Args) == 2 {
				b.WriteString(", ")
				b.WriteString(tt.Args[0].String())
				t = tt.Args[1]
				continue
			}
			b.WriteByte('|')
			b.WriteString(tt.String())
			b.WriteByte(']')
			return b.String()
		default:
			b.WriteByte('|')
			b.WriteString(t.String())
			b.WriteByte(']')
			return b.String()
		}
	}
}

func (c Comp) appendKey(dst []byte) []byte {
	if c.id != 0 {
		return appendUint64(append(dst, 'G'), uint64(c.id))
	}
	dst = append(dst, 'C')
	dst = append(dst, c.Functor...)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(len(c.Args)), 10)
	dst = append(dst, 0)
	for _, a := range c.Args {
		dst = a.appendKey(dst)
	}
	return dst
}

// AppendKey appends an encoding of t, for use as a map key, to dst and
// returns the extended slice: two terms encode alike iff Equal(a, b).
// A ground compound encodes as a tag byte plus its dictionary ID, so
// the key costs O(1) however deep the term is. IDs are assigned per
// process, so a key is process-local: never persist it, send it to
// another process or order by it (durable formats use
// relation.AppendIDKey plus a dictionary section).
func AppendKey(dst []byte, t Term) []byte { return t.appendKey(dst) }

// Equal reports whether a and b are structurally identical terms
// (variables compare by name). Two ground compounds compare by
// dictionary ID in O(1).
func Equal(a, b Term) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch at := a.(type) {
	case Var:
		return at == b.(Var)
	case Sym:
		return at == b.(Sym)
	case Int:
		return at == b.(Int)
	case Str:
		return at == b.(Str)
	case Comp:
		bt := b.(Comp)
		if at.id != 0 && bt.id != 0 {
			return at.id == bt.id
		}
		if at.Functor != bt.Functor || len(at.Args) != len(bt.Args) {
			return false
		}
		for i := range at.Args {
			if !Equal(at.Args[i], bt.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare totally orders terms: by kind first (variables < integers <
// symbols < strings < compounds), then within a kind by value.
// It returns -1, 0 or +1.
func Compare(a, b Term) int {
	if a.Kind() != b.Kind() {
		if a.Kind() < b.Kind() {
			return -1
		}
		return 1
	}
	switch at := a.(type) {
	case Var:
		return strings.Compare(at.Name, b.(Var).Name)
	case Int:
		bv := b.(Int).V
		switch {
		case at.V < bv:
			return -1
		case at.V > bv:
			return 1
		default:
			return 0
		}
	case Sym:
		return strings.Compare(at.Name, b.(Sym).Name)
	case Str:
		return strings.Compare(at.V, b.(Str).V)
	case Comp:
		bt := b.(Comp)
		if c := len(at.Args) - len(bt.Args); c != 0 {
			if c < 0 {
				return -1
			}
			return 1
		}
		if c := strings.Compare(at.Functor, bt.Functor); c != 0 {
			return c
		}
		for i := range at.Args {
			if c := Compare(at.Args[i], bt.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	default:
		return 0
	}
}

// Vars appends the variables occurring in t to dst, left-to-right, with
// duplicates. Use VarSet for the deduplicated set.
func Vars(dst []Var, t Term) []Var {
	switch tt := t.(type) {
	case Var:
		return append(dst, tt)
	case Comp:
		for _, a := range tt.Args {
			dst = Vars(dst, a)
		}
	}
	return dst
}

// VarSet returns the set of variable names occurring in the given terms.
func VarSet(ts ...Term) map[string]bool {
	set := make(map[string]bool)
	var walk func(Term)
	walk = func(t Term) {
		switch tt := t.(type) {
		case Var:
			set[tt.Name] = true
		case Comp:
			for _, a := range tt.Args {
				walk(a)
			}
		}
	}
	for _, t := range ts {
		walk(t)
	}
	return set
}

// SortedVarNames returns the variable names in set in sorted order.
func SortedVarNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ListSlice decomposes a proper list term into its elements. It reports
// ok=false if t is not a proper (nil-terminated, ground-spine) list.
func ListSlice(t Term) (elems []Term, ok bool) {
	for {
		switch tt := t.(type) {
		case Sym:
			if tt == EmptyList {
				return elems, true
			}
			return nil, false
		case Comp:
			if tt.Functor != ConsFunctor || len(tt.Args) != 2 {
				return nil, false
			}
			elems = append(elems, tt.Args[0])
			t = tt.Args[1]
		default:
			return nil, false
		}
	}
}

// ListLen returns the length of a proper list, or -1 if t is not one.
func ListLen(t Term) int {
	n := 0
	for {
		switch tt := t.(type) {
		case Sym:
			if tt == EmptyList {
				return n
			}
			return -1
		case Comp:
			if tt.Functor != ConsFunctor || len(tt.Args) != 2 {
				return -1
			}
			n++
			t = tt.Args[1]
		default:
			return -1
		}
	}
}
