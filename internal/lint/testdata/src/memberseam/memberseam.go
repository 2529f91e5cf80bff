// Fixture for the memberseam analyzer: member-table mutations belong
// inside membership seams only.
package memberseam

import (
	"errors"
	"strings"

	"cluster"
)

type server struct {
	coord *cluster.Coordinator
}

// handleSweep is a request handler, not a membership seam: mutating the
// member table here is a resurrected single-coordinator assumption.
func (s *server) handleSweep(addr string) {
	_, _ = s.coord.Join(nil, cluster.MemberInfo{}) // want `Coordinator\.Join outside a membership seam`
}

func (s *server) retirePeer(name string) {
	s.coord.Leave(name) // want `Coordinator\.Leave outside a membership seam`
}

func (s *server) renew(name string) {
	_ = s.coord.Heartbeat(name, cluster.MemberInfo{}) // want `Coordinator\.Heartbeat outside a membership seam`
}

// handleRegister and handleHeartbeat name the registration plane, which
// is gone: gossip is the only membership authority, so these are no
// longer seams.
func (s *server) handleRegister(addr string) {
	_, _ = s.coord.Join(nil, cluster.MemberInfo{}) // want `Coordinator\.Join outside a membership seam`
}

func (s *server) handleHeartbeat(name string) {
	_ = s.coord.Heartbeat(name, cluster.MemberInfo{}) // want `Coordinator\.Heartbeat outside a membership seam`
}

// --- negative cases: all of these must stay silent ---

// syncGossipMembership is the gossip projection seam.
func (s *server) syncGossipMembership(names []string) {
	for _, n := range names {
		s.coord.Leave(n)
	}
}

// reads are not mutations.
func (s *server) dispatchable() []string {
	return s.coord.Workers()
}

// Join on anything that is not a cluster Coordinator stays legal.
func labels(parts []string, errs []error) (string, error) {
	return strings.Join(parts, ","), errors.Join(errs...)
}

// A suppressed call documents its exemption.
func (s *server) churn(name string) {
	//dsedlint:ignore memberseam fault-injection harness drives membership directly
	s.coord.Leave(name)
}
