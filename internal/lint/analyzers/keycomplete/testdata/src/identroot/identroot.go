// Package identroot is a keycomplete fixture where identOf is a root of
// its own, not reached from Key: the memo keys on identOf while Key
// formats a different subset. A field only identOf reads is covered; a
// field neither reads is reported.
package identroot

import "strconv"

type Point struct {
	Model string
	Batch int
	Turns int // want `Point\.Turns is not folded into`
}

type ident struct {
	batch int
}

func (p Point) Key() string {
	return p.Model
}

func identOf(p *Point) ident {
	return ident{batch: p.Batch}
}

func format(id ident) string {
	return strconv.Itoa(id.batch)
}
