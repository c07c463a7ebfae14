// Package expr implements the expression sublanguage of SDL: the predicates
// that appear in test queries (e.g. `α > 87`, `ν1 ≠ ν2`) and the value
// expressions that appear in assertions and let-actions (e.g. `α + β`,
// `k − 2^(j−1)`).
//
// Expressions evaluate against a Scope, the variable bindings produced by a
// binding query: a process's record and its let-constants, an Env, the
// matcher's slot frame, or one solution row. Evaluation is side-effect free.
package expr

import (
	"errors"
	"fmt"
	"strings"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// Scope resolves the variables an expression reads. A process's record
// (its parameters), a Let over it, the pattern matcher's slot frame and a
// solution row are scopes, so an expression reads bindings where they live
// instead of from a copy; Env is the map-shaped scope of the Go API. A nil
// Scope binds nothing: every variable is unbound.
type Scope interface {
	Lookup(name string) (tuple.Value, bool)
}

// Lister is a scope that can list its bindings, so that EnvOf can hand them
// to an API that promises a map.
type Lister interface {
	Scope
	// AddTo binds in env every name the scope binds, to the value Lookup
	// resolves it to.
	AddTo(env Env)
}

// Env holds variable bindings as a map: the environment a Go caller passes
// with a request, and the solutions a Result reports. Variable names are
// the quantified variables of the enclosing transaction (the paper writes
// them as Greek letters) plus process parameters and let-constants.
type Env map[string]tuple.Value

// Lookup implements Scope. A map converts to a Scope without allocating.
func (e Env) Lookup(name string) (tuple.Value, bool) {
	v, ok := e[name]
	return v, ok
}

// AddTo implements Lister.
func (e Env) AddTo(env Env) {
	for k, v := range e {
		env[k] = v
	}
}

// Let is a scope extended by one binding — an SDL let-constant over the
// scope it extends: Name binds Value, and every other name resolves in
// Under. A Let is never changed once made, so a scope handed out before a
// let (a request a parked offer still holds) keeps what it saw: a let adds
// a node over the scope and changes nothing beneath it.
type Let struct {
	Name  string
	Value tuple.Value
	Under Scope
}

// Lookup implements Scope.
func (l *Let) Lookup(name string) (tuple.Value, bool) {
	if name == l.Name {
		return l.Value, true
	}
	if l.Under == nil {
		return tuple.Value{}, false
	}
	return l.Under.Lookup(name)
}

// AddTo implements Lister: what Under binds, then Name over it.
func (l *Let) AddTo(env Env) {
	Fill(env, l.Under)
	env[l.Name] = l.Value
}

// With returns s extended by name bound to v: one Let over s — over s
// without its Let of name, if it has one, so a name rebound in a loop does
// not lengthen the scope. Dropping a Let copies the Lets above it and
// shares the ones below; s itself is unchanged.
func With(s Scope, name string, v tuple.Value) *Let {
	under, _ := without(s, name)
	return &Let{Name: name, Value: v, Under: under}
}

// without returns s minus the Let that binds name among its Lets, and
// whether it had one.
func without(s Scope, name string) (Scope, bool) {
	l, ok := s.(*Let)
	if !ok {
		return s, false
	}
	if l.Name == name {
		return l.Under, true
	}
	under, dropped := without(l.Under, name)
	if !dropped {
		return l, false
	}
	return &Let{Name: l.Name, Value: l.Value, Under: under}, true
}

// Fill binds in env what s binds, when s can list it (a Lister); a nil
// scope, or one that cannot list, adds nothing.
func Fill(env Env, s Scope) {
	if l, ok := s.(Lister); ok {
		l.AddTo(env)
	}
}

// EnvOf returns s as an Env, for the APIs that promise a map: s itself when
// it is one, a new map of its bindings when it is a Lister, and nil
// otherwise.
func EnvOf(s Scope) Env {
	switch s := s.(type) {
	case Env:
		return s
	case Lister:
		env := Env{}
		s.AddTo(env)
		return env
	}
	return nil
}

// Clone returns an independent copy of the environment.
func (e Env) Clone() Env {
	cp := make(Env, len(e))
	e.AddTo(cp)
	return cp
}

// Errors reported by evaluation.
var (
	// ErrUnbound reports a reference to a variable with no binding.
	ErrUnbound = errors.New("expr: unbound variable")
	// ErrType reports an operand of the wrong kind.
	ErrType = errors.New("expr: type error")
	// ErrDivZero reports integer or float division by zero.
	ErrDivZero = errors.New("expr: division by zero")
)

// Expr is a side-effect-free expression over a Scope.
type Expr interface {
	// Eval computes the value of the expression under s.
	Eval(s Scope) (tuple.Value, error)
	// Vars appends the free variables of the expression to dst.
	Vars(dst []string) []string
	// String renders the expression in SDL surface syntax.
	String() string
}

// Lit is a literal value.
type Lit struct{ Value tuple.Value }

// Const returns a literal expression.
func Const(v tuple.Value) Lit { return Lit{Value: v} }

// Eval implements Expr.
func (l Lit) Eval(Scope) (tuple.Value, error) { return l.Value, nil }

// Vars implements Expr.
func (l Lit) Vars(dst []string) []string { return dst }

func (l Lit) String() string { return l.Value.String() }

// Var is a variable reference.
type Var struct{ Name string }

// V returns a variable-reference expression.
func V(name string) Var { return Var{Name: name} }

// Eval implements Expr.
func (v Var) Eval(s Scope) (tuple.Value, error) {
	if s != nil {
		if val, ok := s.Lookup(v.Name); ok {
			return val, nil
		}
	}
	return tuple.Value{}, fmt.Errorf("%w: %s", ErrUnbound, v.Name)
}

// Vars implements Expr.
func (v Var) Vars(dst []string) []string { return append(dst, v.Name) }

func (v Var) String() string { return v.Name }

// Op enumerates the binary and unary operators.
type Op uint8

// Operators. Arithmetic operators require numeric operands; comparison
// operators use the total order of tuple.Value; logical operators require
// booleans.
const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpNeg
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or", OpNot: "not", OpNeg: "-",
}

// String returns the operator's surface syntax.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "?"
}

// Binary is a binary operation.
type Binary struct {
	Op   Op
	L, R Expr
}

// Bin builds a binary expression.
func Bin(op Op, l, r Expr) Binary { return Binary{Op: op, L: l, R: r} }

// Convenience constructors for the common operators.
func Add(l, r Expr) Binary { return Bin(OpAdd, l, r) }
func Sub(l, r Expr) Binary { return Bin(OpSub, l, r) }
func Mul(l, r Expr) Binary { return Bin(OpMul, l, r) }
func Div(l, r Expr) Binary { return Bin(OpDiv, l, r) }
func Mod(l, r Expr) Binary { return Bin(OpMod, l, r) }
func Eq(l, r Expr) Binary  { return Bin(OpEq, l, r) }
func Ne(l, r Expr) Binary  { return Bin(OpNe, l, r) }
func Lt(l, r Expr) Binary  { return Bin(OpLt, l, r) }
func Le(l, r Expr) Binary  { return Bin(OpLe, l, r) }
func Gt(l, r Expr) Binary  { return Bin(OpGt, l, r) }
func Ge(l, r Expr) Binary  { return Bin(OpGe, l, r) }
func And(l, r Expr) Binary { return Bin(OpAnd, l, r) }
func Or(l, r Expr) Binary  { return Bin(OpOr, l, r) }

// Eval implements Expr.
func (b Binary) Eval(s Scope) (tuple.Value, error) {
	// Short-circuit logical operators.
	switch b.Op {
	case OpAnd, OpOr:
		lv, err := b.L.Eval(s)
		if err != nil {
			return tuple.Value{}, err
		}
		lb, ok := lv.AsBool()
		if !ok {
			return tuple.Value{}, fmt.Errorf("%w: %s operand %v", ErrType, b.Op, lv)
		}
		if b.Op == OpAnd && !lb {
			return tuple.Bool(false), nil
		}
		if b.Op == OpOr && lb {
			return tuple.Bool(true), nil
		}
		rv, err := b.R.Eval(s)
		if err != nil {
			return tuple.Value{}, err
		}
		rb, ok := rv.AsBool()
		if !ok {
			return tuple.Value{}, fmt.Errorf("%w: %s operand %v", ErrType, b.Op, rv)
		}
		return tuple.Bool(rb), nil
	}

	lv, err := b.L.Eval(s)
	if err != nil {
		return tuple.Value{}, err
	}
	rv, err := b.R.Eval(s)
	if err != nil {
		return tuple.Value{}, err
	}

	switch b.Op {
	case OpEq:
		return tuple.Bool(lv.Equal(rv)), nil
	case OpNe:
		return tuple.Bool(!lv.Equal(rv)), nil
	case OpLt:
		return tuple.Bool(lv.Compare(rv) < 0), nil
	case OpLe:
		return tuple.Bool(lv.Compare(rv) <= 0), nil
	case OpGt:
		return tuple.Bool(lv.Compare(rv) > 0), nil
	case OpGe:
		return tuple.Bool(lv.Compare(rv) >= 0), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(b.Op, lv, rv)
	default:
		return tuple.Value{}, fmt.Errorf("expr: bad binary op %d", b.Op)
	}
}

func evalArith(op Op, lv, rv tuple.Value) (tuple.Value, error) {
	li, lok := lv.AsInt()
	ri, rok := rv.AsInt()
	if lok && rok {
		switch op {
		case OpAdd:
			return tuple.Int(li + ri), nil
		case OpSub:
			return tuple.Int(li - ri), nil
		case OpMul:
			return tuple.Int(li * ri), nil
		case OpDiv:
			if ri == 0 {
				return tuple.Value{}, ErrDivZero
			}
			return tuple.Int(li / ri), nil
		case OpMod:
			if ri == 0 {
				return tuple.Value{}, ErrDivZero
			}
			return tuple.Int(li % ri), nil
		}
	}
	lf, lok := lv.Numeric()
	rf, rok := rv.Numeric()
	if !lok || !rok {
		// String concatenation is permitted for +.
		if op == OpAdd {
			ls, lsok := lv.AsString()
			rs, rsok := rv.AsString()
			if lsok && rsok {
				return tuple.String(ls + rs), nil
			}
		}
		return tuple.Value{}, fmt.Errorf("%w: %s on %v, %v", ErrType, op, lv, rv)
	}
	switch op {
	case OpAdd:
		return tuple.Float(lf + rf), nil
	case OpSub:
		return tuple.Float(lf - rf), nil
	case OpMul:
		return tuple.Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return tuple.Value{}, ErrDivZero
		}
		return tuple.Float(lf / rf), nil
	case OpMod:
		return tuple.Value{}, fmt.Errorf("%w: %% on floats", ErrType)
	}
	return tuple.Value{}, fmt.Errorf("expr: bad arith op %d", op)
}

// Vars implements Expr.
func (b Binary) Vars(dst []string) []string { return b.R.Vars(b.L.Vars(dst)) }

func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Unary is a unary operation: logical not or arithmetic negation.
type Unary struct {
	Op Op
	X  Expr
}

// Not builds a logical negation.
func Not(x Expr) Unary { return Unary{Op: OpNot, X: x} }

// Neg builds an arithmetic negation.
func Neg(x Expr) Unary { return Unary{Op: OpNeg, X: x} }

// Eval implements Expr.
func (u Unary) Eval(s Scope) (tuple.Value, error) {
	v, err := u.X.Eval(s)
	if err != nil {
		return tuple.Value{}, err
	}
	switch u.Op {
	case OpNot:
		b, ok := v.AsBool()
		if !ok {
			return tuple.Value{}, fmt.Errorf("%w: not %v", ErrType, v)
		}
		return tuple.Bool(!b), nil
	case OpNeg:
		if i, ok := v.AsInt(); ok {
			return tuple.Int(-i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return tuple.Float(-f), nil
		}
		return tuple.Value{}, fmt.Errorf("%w: - %v", ErrType, v)
	default:
		return tuple.Value{}, fmt.Errorf("expr: bad unary op %d", u.Op)
	}
}

// Vars implements Expr.
func (u Unary) Vars(dst []string) []string { return u.X.Vars(dst) }

func (u Unary) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.X) }

// Call is a built-in function application. The available functions are the
// small numeric library needed by the paper's examples (powers of two for
// the summation phases, neighbourhood predicates, …).
type Call struct {
	Name string
	Args []Expr
}

// Fn builds a built-in call expression.
func Fn(name string, args ...Expr) Call { return Call{Name: name, Args: args} }

// Builtins maps function names to implementations. It is immutable at run
// time; the language front-end validates names at parse time via HasBuiltin.
var builtins = map[string]func(args []tuple.Value) (tuple.Value, error){
	"abs": func(a []tuple.Value) (tuple.Value, error) {
		if err := arity("abs", a, 1); err != nil {
			return tuple.Value{}, err
		}
		if i, ok := a[0].AsInt(); ok {
			if i < 0 {
				i = -i
			}
			return tuple.Int(i), nil
		}
		if f, ok := a[0].AsFloat(); ok {
			if f < 0 {
				f = -f
			}
			return tuple.Float(f), nil
		}
		return tuple.Value{}, fmt.Errorf("%w: abs %v", ErrType, a[0])
	},
	"min": func(a []tuple.Value) (tuple.Value, error) {
		if err := arity("min", a, 2); err != nil {
			return tuple.Value{}, err
		}
		if a[0].Compare(a[1]) <= 0 {
			return a[0], nil
		}
		return a[1], nil
	},
	"max": func(a []tuple.Value) (tuple.Value, error) {
		if err := arity("max", a, 2); err != nil {
			return tuple.Value{}, err
		}
		if a[0].Compare(a[1]) >= 0 {
			return a[0], nil
		}
		return a[1], nil
	},
	"pow2": func(a []tuple.Value) (tuple.Value, error) {
		if err := arity("pow2", a, 1); err != nil {
			return tuple.Value{}, err
		}
		i, ok := a[0].AsInt()
		if !ok || i < 0 || i > 62 {
			return tuple.Value{}, fmt.Errorf("%w: pow2 %v", ErrType, a[0])
		}
		return tuple.Int(1 << i), nil
	},
	"int": func(a []tuple.Value) (tuple.Value, error) {
		if err := arity("int", a, 1); err != nil {
			return tuple.Value{}, err
		}
		f, ok := a[0].Numeric()
		if !ok {
			return tuple.Value{}, fmt.Errorf("%w: int %v", ErrType, a[0])
		}
		return tuple.Int(int64(f)), nil
	},
	// cond(c, a, b) selects a when c is true, else b. Arguments are
	// evaluated eagerly (expressions are side-effect free, so this only
	// costs work, never correctness).
	"cond": func(a []tuple.Value) (tuple.Value, error) {
		if err := arity("cond", a, 3); err != nil {
			return tuple.Value{}, err
		}
		c, ok := a[0].AsBool()
		if !ok {
			return tuple.Value{}, fmt.Errorf("%w: cond condition %v", ErrType, a[0])
		}
		if c {
			return a[1], nil
		}
		return a[2], nil
	},
}

func arity(name string, args []tuple.Value, want int) error {
	if len(args) != want {
		return fmt.Errorf("expr: %s expects %d args, got %d", name, want, len(args))
	}
	return nil
}

// HasBuiltin reports whether name is a known built-in function.
func HasBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

// Eval implements Expr.
func (c Call) Eval(s Scope) (tuple.Value, error) {
	fn, ok := builtins[c.Name]
	if !ok {
		return tuple.Value{}, fmt.Errorf("expr: unknown function %q", c.Name)
	}
	args := make([]tuple.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(s)
		if err != nil {
			return tuple.Value{}, err
		}
		args[i] = v
	}
	return fn(args)
}

// Vars implements Expr.
func (c Call) Vars(dst []string) []string {
	for _, a := range c.Args {
		dst = a.Vars(dst)
	}
	return dst
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// EvalBool evaluates e and asserts a boolean result; it is the entry point
// used for test queries.
func EvalBool(e Expr, s Scope) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(s)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("%w: test query yielded %v, want bool", ErrType, v)
	}
	return b, nil
}

// Compile-time interface checks.
var (
	_ Expr   = Lit{}
	_ Expr   = Var{}
	_ Expr   = Binary{}
	_ Expr   = Unary{}
	_ Expr   = Call{}
	_ Lister = Env(nil)
	_ Lister = (*Let)(nil)
)
