package term

import "testing"

func BenchmarkUnifyFlat(b *testing.B) {
	pat := NewComp("f", NewVar("X"), NewVar("Y"), NewVar("Z"))
	val := NewComp("f", NewInt(1), NewSym("a"), NewStr("s"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSubst()
		if !Unify(s, pat, val) {
			b.Fatal("unify failed")
		}
	}
}

func BenchmarkUnifyListDecompose(b *testing.B) {
	list := IntList(make([]int64, 64)...)
	pat := Cons(NewVar("H"), NewVar("T"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSubst()
		if !Unify(s, pat, list) {
			b.Fatal("unify failed")
		}
	}
}

func BenchmarkKeyLongList(b *testing.B) {
	list := IntList(make([]int64, 256)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if key(list) == "" {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkResolveDeep(b *testing.B) {
	s := NewSubst()
	s.Bind(NewVar("X"), NewVar("Y"))
	s.Bind(NewVar("Y"), NewComp("f", NewVar("Z")))
	s.Bind(NewVar("Z"), IntList(1, 2, 3))
	t := NewComp("g", NewVar("X"), NewVar("Y"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Resolve(t) == nil {
			b.Fatal("nil resolve")
		}
	}
}
