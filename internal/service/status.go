package service

import (
	"sync"

	"bioschedsim/internal/cloud"
)

// Cloudlet lifecycle states as reported by GET /v1/status/{id}.
const (
	StateQueued     = "queued"     // accepted, waiting in the coalescing queue
	StateScheduling = "scheduling" // in a flushed batch, being mapped
	StateFinished   = "finished"   // executed to completion
	StateFailed     = "failed"     // the batch's mapping step errored
)

// StatusRecord is one cloudlet's lifecycle entry.
type StatusRecord struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	Shard int    `json:"shard"`           // shard the dispatcher routed the cloudlet to
	Batch int    `json:"batch,omitempty"` // flush sequence number, once scheduled
	VM    int    `json:"vm"`              // assigned VM id, -1 until execution
	// Simulated-seconds timeline on the session's monotonic clock.
	SubmitSim float64 `json:"submit_sim,omitempty"`
	StartSim  float64 `json:"start_sim,omitempty"`
	FinishSim float64 `json:"finish_sim,omitempty"`
	ExecSec   float64 `json:"exec_seconds,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// statusStore tracks cloudlet lifecycles with bounded memory: finished (and
// failed) records beyond the retention cap are evicted oldest-first, while
// queued and in-flight records are always kept.
type statusStore struct {
	mu        sync.RWMutex
	records   map[int]*StatusRecord
	doneOrder []int // finished/failed ids in completion order, for eviction
	retention int
}

func newStatusStore(retention int) *statusStore {
	return &statusStore{records: make(map[int]*StatusRecord), retention: retention}
}

// add registers a freshly accepted cloudlet as queued on its routed shard.
func (s *statusStore) add(id, shard int) {
	s.mu.Lock()
	s.records[id] = &StatusRecord{ID: id, State: StateQueued, Shard: shard, VM: -1}
	s.mu.Unlock()
}

// scheduling marks every id as entering batch's mapping step.
func (s *statusStore) scheduling(ids []int, batch int) {
	s.mu.Lock()
	for _, id := range ids {
		if r := s.records[id]; r != nil {
			r.State = StateScheduling
			r.Batch = batch
		}
	}
	s.mu.Unlock()
}

// finish records a batch's completed cloudlets as finished.
func (s *statusStore) finish(cls []*cloud.Cloudlet) {
	s.mu.Lock()
	for _, c := range cls {
		if r := s.records[c.ID]; r != nil {
			r.State = StateFinished
			if c.VM != nil {
				r.VM = c.VM.ID
			}
			r.SubmitSim = c.SubmitTime
			r.StartSim = c.StartTime
			r.FinishSim = c.FinishTime
			r.ExecSec = c.ExecTime()
			s.retire(c.ID)
		}
	}
	s.mu.Unlock()
}

// fail marks every id of a batch whose mapping step errored.
func (s *statusStore) fail(ids []int, msg string) {
	s.mu.Lock()
	for _, id := range ids {
		if r := s.records[id]; r != nil {
			r.State = StateFailed
			r.Error = msg
			s.retire(id)
		}
	}
	s.mu.Unlock()
}

// retire appends id to the eviction order and enforces retention. Caller
// holds the lock.
func (s *statusStore) retire(id int) {
	s.doneOrder = append(s.doneOrder, id)
	for len(s.doneOrder) > s.retention {
		evict := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.records, evict)
	}
}

// get returns a copy of id's record.
func (s *statusStore) get(id int) (StatusRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.records[id]
	if !ok {
		return StatusRecord{}, false
	}
	return *r, true
}

// countState returns how many records are in the given state.
func (s *statusStore) countState(state string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.records {
		if r.State == state {
			n++
		}
	}
	return n
}
