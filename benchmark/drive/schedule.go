package drive

import (
	"math/rand"
	"time"
)

// MixEntry is one kernel of a traffic mix with its integer weight.
type MixEntry struct {
	Kernel string
	Weight int
}

// Query is one generated query: what to ask, and for open-loop traffic the
// instant, as an offset from the phase start, at which it is due.
type Query struct {
	Kernel string
	Graph  int   // index into the served graph list
	Vertex int64 // BFS/SSSP source or CC vertex; unused for PR
	At     time.Duration
}

// Stream generates one connection's queries. The same seed, connection
// number and graph list always give the same sequence: kernel by mix weight,
// graph uniform, vertex uniform over that graph, so no two queries share
// work except by chance.
type Stream struct {
	rng    *rand.Rand
	mix    []MixEntry
	total  int
	graphs []GraphInfo
	at     time.Duration
}

// NewStream seeds a stream for one connection of one phase.
func NewStream(seed uint64, phase, conn int, mix []MixEntry, graphs []GraphInfo) *Stream {
	s := &Stream{mix: mix, graphs: graphs}
	s.rng = rand.New(rand.NewSource(int64(seed*1000003 + uint64(phase)*1009 + uint64(conn))))
	for _, e := range mix {
		s.total += e.Weight
	}
	return s
}

// Next returns the stream's next query with At unset.
func (s *Stream) Next() Query {
	q := Query{Graph: s.rng.Intn(len(s.graphs))}
	pick := s.rng.Intn(s.total)
	for _, e := range s.mix {
		if pick < e.Weight {
			q.Kernel = e.Kernel
			break
		}
		pick -= e.Weight
	}
	q.Vertex = s.rng.Int63n(s.graphs[q.Graph].Nodes)
	return q
}

// Poisson returns the queries due on this stream within dur when arrivals
// are a Poisson process of the given rate per second: exponential gaps, so
// the schedule does not depend on how fast anything answers.
func (s *Stream) Poisson(rate float64, dur time.Duration) []Query {
	var out []Query
	for {
		s.at += time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
		if s.at >= dur {
			return out
		}
		q := s.Next()
		q.At = s.at
		out = append(out, q)
	}
}
