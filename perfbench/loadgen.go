package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/codsearch/cod/internal/graph"
)

// conn is one HTTP connection of the load generator: a client pinned to a
// single keep-alive connection that waits for each reply before sending
// again. It remembers the last index epoch it saw, so a swap that goes
// backwards on a connection is caught. During a timed phase it only records
// replies; drain checks them afterwards, so the checks' CPU does not
// compete with the server while latency is measured.
type conn struct {
	client    *http.Client
	lastEpoch int
	log       []recorded
}

// recorded is one request and the reply it got.
type recorded struct {
	q benchQuery
	r reply
}

func (c *conn) record(q benchQuery, r reply) { c.log = append(c.log, recorded{q, r}) }

// drain checks every recorded reply in the order the connection got them,
// against epochs in [minEpoch,maxEpoch], and returns how many carried
// maxEpoch.
func (c *conn) drain(t *tally, g *graph.Graph, minEpoch, maxEpoch int) int {
	atMax := 0
	for _, rec := range c.log {
		t.check(c.checkReply(g, rec.q, rec.r, minEpoch, maxEpoch))
		if rec.r.epoch == maxEpoch {
			atMax++
		}
	}
	c.log = c.log[:0]
	return atMax
}

func newConn() *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// reply is one response as the generator saw it.
type reply struct {
	status int
	epoch  int
	body   []byte
	err    error
}

// get sends one GET and reads the whole body.
func (c *conn) get(ctx context.Context, u string) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, body: body, err: err}
	if e := resp.Header.Get("X-Cod-Epoch"); e != "" {
		r.epoch, _ = strconv.Atoi(e)
	}
	return r
}

// discoverURL renders a query as codserve's /discover request: the legacy
// ?q=&attr= form, or the expression form with a node= knob.
func discoverURL(base string, q benchQuery) string {
	if q.Expr == "" {
		return fmt.Sprintf("%s/discover?q=%d&attr=%d", base, q.Node, q.Attr)
	}
	return base + "/discover?q=" + url.QueryEscape(fmt.Sprintf("%s and node=%d", q.Expr, q.Node))
}

// discoverResponse is the part of codserve's /discover body the checks use.
type discoverResponse struct {
	Found       bool    `json:"found"`
	FromIndex   bool    `json:"from_index"`
	Rank        int     `json:"rank"`
	Size        int     `json:"size"`
	Density     float64 `json:"topology_density"`
	Conductance float64 `json:"conductance"`
	Nodes       []int32 `json:"nodes"`
}

// replyAnswer decodes a 200 /discover reply; anything else is a failure.
func replyAnswer(r reply) (answer, string) {
	if r.err != nil {
		return answer{}, "transport: " + r.err.Error()
	}
	if r.status != http.StatusOK {
		return answer{}, fmt.Sprintf("status %d: %.120s", r.status, r.body)
	}
	var d discoverResponse
	if err := json.Unmarshal(r.body, &d); err != nil {
		return answer{}, "decoding response: " + err.Error()
	}
	a := answer{Found: d.Found, FromIndex: d.FromIndex, Rank: d.Rank, Size: d.Size,
		Nodes: d.Nodes, Density: d.Density, Conductance: d.Conductance}
	if d.Found && a.Nodes == nil && d.Size <= 1000 {
		return a, "a found community of size <= 1000 came without its nodes"
	}
	return a, ""
}

// checkReply checks one /discover reply: the answer, and that its epoch is
// one of those allowed and not older than the last one this connection saw.
func (c *conn) checkReply(g *graph.Graph, q benchQuery, r reply, minEpoch, maxEpoch int) string {
	a, bad := replyAnswer(r)
	if bad != "" {
		return bad
	}
	if r.epoch < minEpoch || r.epoch > maxEpoch {
		return fmt.Sprintf("epoch %d outside [%d,%d]", r.epoch, minEpoch, maxEpoch)
	}
	if r.epoch < c.lastEpoch {
		return fmt.Sprintf("epoch went back from %d to %d on one connection", c.lastEpoch, r.epoch)
	}
	c.lastEpoch = r.epoch
	return checkAnswer(g, q, a, rankBound)
}

// closedLoop sends stream (cycling) over conns, each connection waiting for
// its reply before sending again, until d has passed. It returns the reply
// rate (per second) of each window of width win, so a short stall on a
// shared machine moves one window, not the whole phase.
func closedLoop(ctx context.Context, conns []*conn, stream []benchQuery, d, win time.Duration,
	send func(ctx context.Context, c *conn, q benchQuery)) []float64 {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	counts := make([]atomic.Int64, int(d/win))
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := next.Add(1) - 1
				send(ctx, c, stream[int(i)%len(stream)])
				if k := int(time.Since(start) / win); k < len(counts) {
					counts[k].Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	rates := make([]float64, len(counts))
	for k := range counts {
		rates[k] = float64(counts[k].Load()) / win.Seconds()
	}
	return rates
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, drawn from seed: the same seed gives the same schedule.
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5ced))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoopResult is what an open-loop phase measured.
type openLoopResult struct {
	// latency of each request in ms, timed from its due time, less the
	// generator's own lateness: a request that found every connection busy
	// counts its whole wait from the due time (a server stall delays every
	// request behind it); a request that found a connection free counts
	// from when it was sent, since sending it late was the generator's
	// doing, not the server's.
	latency []float64
	// genLate is, for requests a connection was free for, how long after
	// the due time the generator actually sent them (ms).
	genLate []float64
	// backlogged counts requests that found every connection busy.
	backlogged int
}

// openLoop sends request i of the schedule at start+sched[i] on the first
// free connection. With at most len(conns) requests in flight, a request
// due while all are busy waits for one, and its latency counts from its
// due time, so a stall shows in every request it delays.
func openLoop(ctx context.Context, conns []*conn, start time.Time, sched []time.Duration,
	send func(ctx context.Context, c *conn, i int)) openLoopResult {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		res  openLoopResult
	)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				free := time.Now().Before(due)
				if free {
					time.Sleep(time.Until(due))
				}
				sent := time.Now()
				send(ctx, c, i)
				done := time.Now()
				mu.Lock()
				if free {
					res.latency = append(res.latency, ms(done.Sub(sent)))
					res.genLate = append(res.genLate, ms(sent.Sub(due)))
				} else {
					res.latency = append(res.latency, ms(done.Sub(due)))
					res.backlogged++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res
}
