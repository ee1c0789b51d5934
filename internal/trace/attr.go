package trace

import (
	"sync"

	"socialrec/internal/telemetry"
)

// maxAttrsPerSpan bounds per-span attribute storage; later Sets are
// dropped. Spans describe operations, not payloads — a handful of counts
// and identifiers is the intended shape.
const maxAttrsPerSpan = 16

// keyRegistry is the closed world of declared attribute keys. Keys are
// declared at package init time by the subsystems that emit them; there is
// no way to attach an attribute under a name that was not spelled out as a
// static string up front.
var keyRegistry = struct {
	mu    sync.Mutex
	names map[string]bool
}{names: map[string]bool{}}

// Key names one declared span attribute. The zero Key is undeclared and
// attributes built from it are dropped; the only way to obtain a non-zero
// Key is NewKey, which is what makes the attribute key space closed-world.
type Key struct {
	name string
}

// NewKey declares an attribute key. The name must be a static identifier
// ([a-z][a-z0-9_]*); anything else panics, because key declaration happens
// at package init with compile-time-constant names and a dynamic name here
// would mean request data is about to become an attribute key. Redeclaring
// a name returns an equal Key (subsystems may share one).
func NewKey(name string) Key {
	if !telemetry.ValidName(name) {
		// The offending name is deliberately not echoed: a dynamic name
		// here is suspected request data, and panic messages land in crash
		// logs. The stack trace identifies the offending declaration.
		panic("trace: invalid attribute key (keys are static identifiers declared up front, never request data)")
	}
	keyRegistry.mu.Lock()
	keyRegistry.names[name] = true
	keyRegistry.mu.Unlock()
	return Key{name: name}
}

// KeyDeclared reports whether name has been declared through NewKey
// (tests assert the closed world).
func KeyDeclared(name string) bool {
	keyRegistry.mu.Lock()
	defer keyRegistry.mu.Unlock()
	return keyRegistry.names[name]
}

// attrKind discriminates the three legal value shapes. There is no float
// kind on purpose: released scores and noisy utilities are floats, and the
// absence of a constructor is the strongest possible guarantee none ever
// becomes span state.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindBool
	kindIdent
)

// Attr is one (declared key, validated value) pair awaiting Span.Set.
type Attr struct {
	key  Key
	kind attrKind
	num  int64
	str  string
}

// Int builds an integer attribute — public cardinalities and sizes (list
// length n, batch size, cluster count), never encoded payloads.
func (k Key) Int(v int64) Attr { return Attr{key: k, kind: kindInt, num: v} }

// Bool builds a boolean attribute.
func (k Key) Bool(v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{key: k, kind: kindBool, num: n}
}

// Ident builds a string attribute whose value must itself be a static
// identifier (an endpoint constant, a mechanism name, a stage name). Any
// other string — a user token, an item, a file path — is recorded as
// "invalid_value" instead, upholding the no-preference-edges invariant.
func (k Key) Ident(v string) Attr {
	if !telemetry.ValidName(v) {
		v = "invalid_value"
	}
	return Attr{key: k, kind: kindIdent, str: v}
}

// exportAttrs renders attributes for the JSON export.
func exportAttrs(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for _, a := range attrs {
		switch a.kind {
		case kindBool:
			out[a.key.name] = a.num == 1
		case kindIdent:
			out[a.key.name] = a.str
		default:
			out[a.key.name] = a.num
		}
	}
	return out
}
