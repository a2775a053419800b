// Package sweep is a keycomplete fixture shaped like the real package:
// Key formats the model token and the identity identOf builds, identOf
// covers one field directly and one through a helper, and misses one —
// the seeded violation the analyzer must catch.
package sweep

import "strconv"

type Point struct {
	Model string
	Batch int
	Seq   int
	Rate  float64 // want `Point\.Rate is not folded into`
	note  string  //lint:nokey annotation only, not an axis
	//lint:nokey
	Hidden int // want `bare //lint:nokey directive`
}

type ident struct {
	batch, seq int
}

func (p Point) Key() string {
	id := identOf(&p)
	return p.Model + "|" + strconv.Itoa(id.batch) + "|" + strconv.Itoa(id.seq)
}

func identOf(p *Point) ident {
	return ident{batch: p.Batch, seq: seqOf(p)}
}

func seqOf(p *Point) int {
	return p.Seq
}
