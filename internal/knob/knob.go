// Package knob holds the repo-wide convention for numeric config fields
// whose zero value means "use the default": a literal zero selects the
// default, and ExplicitZero (or any negative value) asks for a true zero.
// Every package's ExplicitZero is an alias of the constant here, and every
// such field resolves through Resolve.
package knob

// ExplicitZero configures a field to an effective value of zero, which a
// literal zero cannot express.
const ExplicitZero = -1

// Resolve maps a config field to its effective value: zero selects def,
// negative (ExplicitZero) a true zero, anything else is kept.
func Resolve[T ~int | ~float64](v, def T) T {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}
