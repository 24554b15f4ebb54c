package machine

import (
	"fmt"

	"jayanti98/internal/shmem"
)

// goDriver is the goroutine engine: the algorithm body runs in direct style
// on its own goroutine and takes turns with the scheduler over two
// channels. This is the reference implementation of the process model — the
// body is ordinary Go code, so it can express anything (closures over local
// state, universal constructions, helper types) at the cost of two channel
// handoffs per step.
//
// The body sends one Action on actions, then receives one input on in;
// the scheduler receives that action and sends an input only for a pending
// toss or op. Turns alternate strictly, so each channel holds at most one
// value: with capacity 1, no send blocks, the body's final return or crash
// action included. close(in) is the kill signal: a body blocked at a yield
// unwinds with killedSentinel. The body's goroutine closes actions as it
// exits, so close waits for it by draining actions until it is closed.
type goDriver struct {
	actions chan Action
	in      chan input
	closed  bool
}

// input is what the scheduler hands the body for its pending action: a toss
// outcome or an op response.
type input struct {
	toss int64
	resp shmem.Response
}

// killedSentinel is the panic that unwinds an abandoned machine body.
type killedSentinel struct{}

func startGoDriver(alg Algorithm, id, n int) *goDriver {
	g := &goDriver{actions: make(chan Action, 1), in: make(chan input, 1)}
	go g.run(alg, &Env{id: id, n: n, g: g})
	return g
}

func (g *goDriver) run(alg Algorithm, env *Env) {
	defer close(g.actions)
	defer func() {
		switch r := recover(); r.(type) {
		case nil, killedSentinel: // returned, or killed: nothing to publish
		default:
			g.actions <- Action{Kind: ActCrash, Ret: fmt.Sprintf("panic: %v", r)}
		}
	}()
	g.actions <- Action{Kind: ActReturn, Ret: alg.Run(env)}
}

// yield publishes a pending action and blocks for its input.
func (g *goDriver) yield(a Action) input {
	g.actions <- a
	v, ok := <-g.in
	if !ok {
		panic(killedSentinel{})
	}
	return v
}

func (g *goDriver) next() Action { return <-g.actions }

func (g *goDriver) toss(outcome int64) { g.in <- input{toss: outcome} }

func (g *goDriver) resp(r shmem.Response) { g.in <- input{resp: r} }

func (g *goDriver) close() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.in)
	for range g.actions {
	}
}
