package serve

import (
	"errors"
	"fmt"

	"plum/internal/core"
	"plum/internal/msg"
)

// WorldError is the fault-isolation boundary's public face: one
// request's world died, and this is everything the client needs to file
// a useful report — the content address of the run (Key), what kind of
// death it was, and, when a single rank's program panicked, which rank
// and in which phase of the adapt-balance-solve cycle.
//
// A WorldError is always the recovered form of a world fault: the
// process served every other request throughout.
type WorldError struct {
	Key      string `json:"key"`             // request digest (the run's content address)
	Kind     string `json:"kind"`            // "panic" or "deadlock"
	Rank     int    `json:"rank"`            // failing rank (panic only; -1 otherwise)
	Phase    string `json:"phase,omitempty"` // simulated phase the rank died in (panic only)
	Ranks    []int  `json:"ranks,omitempty"` // blocked ranks (deadlock only)
	Detail   string `json:"detail"`          // the panic value / deadlock description
	hasStack []byte // rank stack, logged server-side, never sent to clients
}

func (we *WorldError) Error() string {
	if we.Kind == "deadlock" {
		return fmt.Sprintf("serve: world %s deadlocked: ranks %v", shortKey(we.Key), we.Ranks)
	}
	if we.Phase != "" {
		return fmt.Sprintf("serve: world %s: rank %d panicked in %s: %s",
			shortKey(we.Key), we.Rank, we.Phase, we.Detail)
	}
	return fmt.Sprintf("serve: world %s panicked: %s", shortKey(we.Key), we.Detail)
}

// shortKey abbreviates a content address for log lines.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// Stack returns the failing rank's stack for server-side logging.
func (we *WorldError) Stack() []byte { return we.hasStack }

// classifyWorldErr maps a runner error onto the wire taxonomy.  The
// typed chain it unpacks: runWorlds recovers any world panic into
// *core.WorldPanic, whose value — when the death started inside the
// message-passing world — is a *msg.RankPanic (rank program panic,
// engine-attributed rank and phase) or *msg.DeadlockError (every
// runnable rank blocked in Recv).  Anything else (a panic outside the
// world machinery, an arbitrary error) degrades to an attributed
// "panic" with rank -1.
func classifyWorldErr(key string, err error) *WorldError {
	we := &WorldError{Key: key, Kind: "panic", Rank: -1, Detail: err.Error()}
	var wp *core.WorldPanic
	if errors.As(err, &wp) {
		we.hasStack = wp.Stack
		we.Detail = fmt.Sprint(wp.Value)
		switch v := wp.Value.(type) {
		case *msg.RankPanic:
			we.Rank = v.Rank
			we.Phase = v.Phase.String()
			we.Detail = fmt.Sprint(v.Value)
			we.hasStack = v.Stack
		case *msg.DeadlockError:
			we.Kind = "deadlock"
			we.Ranks = v.Ranks
			we.Detail = v.Error()
		}
	}
	return we
}
