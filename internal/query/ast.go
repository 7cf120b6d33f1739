package query

import (
	"fmt"
	"strings"

	"cbfww/internal/core"
	"cbfww/internal/object"
)

// Modifier is the usage-based SELECT modifier of §4.3.
type Modifier int

// The four modifiers plus None.
const (
	ModNone Modifier = iota
	ModMRU           // most recently used first
	ModLRU           // least recently used first
	ModMFU           // most frequently used first
	ModLFU           // least frequently used first
)

// String names the modifier as written in queries.
func (m Modifier) String() string {
	switch m {
	case ModMRU:
		return "MRU"
	case ModLRU:
		return "LRU"
	case ModMFU:
		return "MFU"
	case ModLFU:
		return "LFU"
	default:
		return ""
	}
}

// Query is a parsed SELECT statement.
type Query struct {
	// Modifier orders results by usage; Limit bounds them. Per the paper a
	// bare modifier returns the single top object ("the system will ...
	// choose the most frequently used one"); an explicit count widens
	// that. Limit is 0 when no modifier and no count were given (= all).
	Modifier Modifier
	Limit    int
	// Fields are the projected attributes; empty means SELECT *.
	Fields []FieldRef
	// Class is the queried collection; Alias binds rows in WHERE.
	Class object.Kind
	Alias string
	// Where is nil when absent.
	Where Expr
}

// FieldRef names alias.field.
type FieldRef struct {
	Alias string
	Field string
}

// String renders the reference.
func (f FieldRef) String() string { return f.Alias + "." + f.Field }

// Expr is a WHERE-clause expression node.
type Expr interface {
	// String renders the expression approximately as parsed.
	String() string
}

// BinExpr is a binary operation: comparisons (=, !=, <, <=, >, >=) and the
// logical AND/OR.
type BinExpr struct {
	Op   string
	L, R Expr
}

func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// NotExpr negates its operand.
type NotExpr struct{ X Expr }

func (e *NotExpr) String() string { return "NOT " + e.X.String() }

// MentionExpr is `field MENTION 'phrase'`: true when the field's text
// contains every term of the phrase.
type MentionExpr struct {
	Field  FieldRef
	Phrase string
}

func (e *MentionExpr) String() string {
	return fmt.Sprintf("%s MENTION %q", e.Field, e.Phrase)
}

// InExpr is `x IN set` where set is a sub-query or a set-valued field.
type InExpr struct {
	X   Expr
	Set Expr
}

func (e *InExpr) String() string { return fmt.Sprintf("%s IN %s", e.X, e.Set) }

// ExistsExpr is `EXISTS (sub-query)`.
type ExistsExpr struct{ Sub *Query }

func (e *ExistsExpr) String() string { return "EXISTS (...)" }

// SubqueryExpr wraps a nested SELECT used as a value set.
type SubqueryExpr struct{ Sub *Query }

func (e *SubqueryExpr) String() string { return "(SELECT ...)" }

// CallExpr is a function application, e.g. end_at(l.oid).
type CallExpr struct {
	Name string
	Args []Expr
}

func (e *CallExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// FieldExpr reads alias.field from the bound row.
type FieldExpr struct{ Ref FieldRef }

func (e *FieldExpr) String() string { return e.Ref.String() }

// LitExpr is a literal string or number.
type LitExpr struct {
	Str   string
	Num   int64
	IsNum bool
}

func (e *LitExpr) String() string {
	if e.IsNum {
		return fmt.Sprintf("%d", e.Num)
	}
	return fmt.Sprintf("%q", e.Str)
}

// classNames maps FROM-clause class names to hierarchy kinds. Both the
// paper's spelling and short forms are accepted.
var classNames = map[string]object.Kind{
	"raw_object":      object.KindRaw,
	"raw_web_object":  object.KindRaw,
	"physical_page":   object.KindPhysical,
	"logical_page":    object.KindLogical,
	"semantic_region": object.KindRegion,
}

// KindForClass resolves a FROM-clause class name (case-insensitive).
func KindForClass(name string) (object.Kind, bool) {
	k, ok := classNames[strings.ToLower(name)]
	return k, ok
}

// Row is one result row: the projected field values in SELECT order.
type Row struct {
	ID     core.ObjectID
	Values []Value
}

// Value is a dynamically typed query value.
type Value struct {
	Kind ValueKind
	Str  string
	Num  int64
	ID   core.ObjectID
	Set  map[core.ObjectID]bool
	Bool bool
}

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	ValStr ValueKind = iota
	ValNum
	ValID
	ValIDSet
	ValBool
)

// String renders the value for result tables.
func (v Value) String() string {
	switch v.Kind {
	case ValStr:
		return v.Str
	case ValNum:
		return fmt.Sprintf("%d", v.Num)
	case ValID:
		return v.ID.String()
	case ValBool:
		return fmt.Sprintf("%v", v.Bool)
	case ValIDSet:
		return fmt.Sprintf("{%d ids}", len(v.Set))
	default:
		return "?"
	}
}
