package msg

import (
	"testing"

	"plum/internal/event"
)

// TestCollectivesStampPhase: every record a collective produces carries
// event.PhaseCollective, also when the caller runs it inside another
// phase.  The profile aggregator buckets receive waits by phase alone,
// so a collective that forgot its PushPhase would drift its waits into
// the caller's bucket.
func TestCollectivesStampPhase(t *testing.T) {
	const p = 5
	cases := []struct {
		name string
		run  func(c *Comm)
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }},
		{"Bcast", func(c *Comm) { c.Bcast(1, []byte{1, 2, 3}) }},
		{"BcastInts", func(c *Comm) { c.BcastInts(0, []int64{7, 8}) }},
		{"BcastInt64", func(c *Comm) { c.BcastInt64(1, 7) }},
		{"BcastFloat64", func(c *Comm) { c.BcastFloat64(2, 0.5) }},
		{"Gather", func(c *Comm) { c.Gather(3, []byte{byte(c.Rank())}, make([][]byte, p)) }},
		{"Allgather", func(c *Comm) { c.Allgather([]byte{byte(c.Rank())}, make([][]byte, p)) }},
		{"AllreduceInt64", func(c *Comm) { c.AllreduceInt64(int64(c.Rank()), SumInt64) }},
		{"AllreduceFloat64", func(c *Comm) { c.AllreduceFloat64(float64(c.Rank()), MaxFloat64) }},
		{"ReduceIntsSum", func(c *Comm) { c.ReduceIntsSum([]int64{1, int64(c.Rank())}) }},
		{"Alltoall", func(c *Comm) {
			parts := make([][]byte, p)
			for i := range parts {
				parts[i] = []byte{byte(c.Rank()), byte(i)}
			}
			c.Alltoall(parts, make([][]byte, p))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, tr := RunTraced(p, SP2Model(), func(c *Comm) {
				c.PushPhase(event.PhaseSolve)
				tc.run(c)
				c.PopPhase()
			})
			var sends, recvs int
			for _, r := range tr.Records {
				if !isCollectiveTag(r.Tag) {
					continue
				}
				if r.Phase != event.PhaseCollective {
					t.Fatalf("%+v carries phase %v", r, r.Phase)
				}
				if r.Kind == event.KindSend {
					sends++
				} else {
					recvs++
				}
			}
			if sends == 0 || sends != recvs {
				t.Fatalf("%d collective sends, %d receives", sends, recvs)
			}
		})
	}
}
