package drive

import (
	"encoding/json"
	"fmt"
	"time"

	"gapbench/internal/par"
	"gapbench/internal/serve"
)

// probeCalls is how many calls each direct-call probe times.
const probeCalls = 10000

// layerProbes times, by direct calls into internal/serve, the three pieces of
// the daemon's per-query overhead that the wire cannot separate: decoding a
// request into serve.Request, encoding a serve.Response of each kernel in the
// mix, and one lease cycle on an idle pool of the daemon's default shape.
func (p *Drive) layerProbes() error {
	m := p.res.Metrics
	c := &client{graphs: p.graphs}
	st := NewStream(p.cfg.Seed, 0, 0, p.cfg.Mix, p.graphs)
	lines := make([][]byte, 64)
	for i := range lines {
		b, err := c.encode(st.Next())
		if err != nil {
			return err
		}
		lines[i] = b
	}
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		var req serve.Request
		if err := json.Unmarshal(lines[i%len(lines)], &req); err != nil {
			return fmt.Errorf("serve.Request does not decode the driver's request: %w", err)
		}
	}
	m["serve.req_decode_ns"] = float64(time.Since(t0).Nanoseconds()) / probeCalls

	var resps []serve.Response
	for _, e := range p.cfg.Mix {
		r := serve.Response{Code: serve.CodeOK, Kernel: e.Kernel, Graph: p.graphs[0].Name, Framework: "GAP",
			Micros: 385, KernelMicros: 120, Result: &serve.QueryResult{}}
		switch e.Kernel {
		case "BFS", "SSSP":
			r.Result.Reached = p.graphs[0].Nodes
		case "CC":
			r.Result.Component, r.Result.Size = 7, p.graphs[0].Nodes
		case "PR":
			for v := 0; v < topK; v++ {
				r.Result.TopK = append(r.Result.TopK, serve.RankEntry{V: int64(v * 977), Score: 0.01 / float64(v+1)})
			}
		}
		resps = append(resps, r)
	}
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		if _, err := json.Marshal(resps[i%len(resps)]); err != nil {
			return err
		}
	}
	m["serve.resp_encode_ns"] = float64(time.Since(t0).Nanoseconds()) / probeCalls

	pool := serve.NewPool(2, 4) // gapd's -pool and -workers defaults
	tok := par.NewCancelToken()
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		if err := leaseCycle(pool, tok); err != nil {
			return err
		}
	}
	m["serve.lease_cycle_ns"] = float64(time.Since(t0).Nanoseconds()) / probeCalls
	return pool.Drain(time.Second)
}

// leaseCycle takes and returns one lease the way the daemon does, settling it
// under a defer.
func leaseCycle(pool *serve.Pool, tok *par.CancelToken) error {
	lease, err := pool.Acquire(tok)
	if err != nil {
		return err
	}
	defer lease.Release()
	return nil
}
