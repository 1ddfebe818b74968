// Package failpath exercises the failpath analyzer.
package failpath

import (
	"errors"
	"fmt"

	"internal/dist"
)

type algo struct{}

func (algo) InitWords(n *dist.Node) {
	if n.Degree() < 0 {
		panic("negative degree") // want `raw panic in vertex program InitWords`
	}
	n.Fail(errors.New("boom")) // the first-class error path
}

func (algo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	if n.ID() < 0 {
		panic("impossible id") // want `raw panic in vertex program StepWords`
	}
	func() {
		panic("closures still run inside the step") // want `raw panic in vertex program StepWords`
	}()
	n.Failf("vertex %d broke: %v", n.ID(), fmt.Errorf("cause"))
	//distvet:panic-ok engine-misuse guard; the program itself is broken here
	panic("sanctioned")
	panic("sanctioned inline") //distvet:panic-ok same-line directive
	panic("no reason given")   /* want "annotation requires a justification" */ //distvet:panic-ok
}

// Step and step are not vertex-program entry points (the engine calls
// only InitWords and StepWords): raw panics are their own business.
func (algo) Step(n *dist.Node) {
	panic("not an entry point")
}

func (algo) step(n *dist.Node) {
	panic("helper panic, out of scope")
}

// StepWords without a *dist.Node parameter is some other StepWords
// entirely.
type walker struct{}

func (walker) StepWords(depth int) {
	panic("not a vertex program")
}
