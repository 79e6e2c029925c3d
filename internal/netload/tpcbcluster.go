package netload

import (
	"math/rand"

	"ipa/internal/client"
)

// ClusterTPCB drives the TPC-B Account_Update transaction against a
// replicated cluster through a leader-following client.Pool. Every
// operation runs inside Pool.Do, so a REDIRECT from a follower or a
// leader crash mid-transaction is absorbed by re-running the whole
// attempt against the new leader — the physical replication keeps RIDs
// identical on every member, so the Init-time RID maps survive
// failovers unchanged.
type ClusterTPCB struct {
	Net *NetTPCB
}

// NewClusterTPCB builds a driver; Init must run before RunOne.
func NewClusterTPCB() *ClusterTPCB {
	return &ClusterTPCB{Net: NewNetTPCB()}
}

// Init scans the TPC-B tables (on whichever member currently leads)
// and builds the id→RID maps.
func (ct *ClusterTPCB) Init(p *client.Pool) error {
	return p.Do(func(c *client.Conn) error {
		return ct.Net.Init(c)
	})
}

// RunOne executes one Account_Update transaction against the current
// leader, following redirects and retrying across failovers. On
// success it returns the history sequence number the server
// acknowledged — once returned with a nil error, that row must survive
// any single node failure. Each retry attempt uses a fresh sequence
// number, so an attempt whose outcome was lost with a dead leader is
// never double-counted as acknowledged.
func (ct *ClusterTPCB) RunOne(p *client.Pool, rng *rand.Rand) (uint64, error) {
	var seq uint64
	err := p.Do(func(c *client.Conn) error {
		s, e := ct.Net.RunOneSeq(c, rng)
		if e == nil {
			seq = s
		}
		return e
	})
	return seq, err
}
