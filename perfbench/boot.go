package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"spanners/client"
	"spanners/internal/cluster"
	"spanners/internal/httpapi"
	"spanners/internal/registry"
	"spanners/internal/service"
)

// shardCount is the number of in-process spand shards behind the gate.
const shardCount = 2

// shardNode is one in-process spand behind its loopback listener, with
// a client of its own for counter snapshots.
type shardNode struct {
	srv *httptest.Server
	c   *client.Client
}

// servedCluster is spangate over shardCount spand shards, each with
// one extraction worker and its own registry directory, all on
// loopback listeners, plus the generator's client for the gate.
type servedCluster struct {
	shards []*shardNode
	gate   *cluster.Gate
	gsrv   *httptest.Server
	gen    *client.Client
	genTr  *http.Transport
	conns  int // generator connections to the gate
	dir    string

	registerMs []float64 // registry PUT round trips during setup
}

// register PUTs a spanner through the gate, which broadcasts it to
// every shard, and returns its pinned name@version reference.
func (c *servedCluster) register(ctx context.Context, name, src string) (string, error) {
	start := time.Now()
	man, _, err := c.gen.RegisterSpanner(ctx, name, src)
	if err != nil {
		return "", fmt.Errorf("register %s: %w", name, err)
	}
	c.registerMs = append(c.registerMs, float64(time.Since(start))/1e6)
	return man.Ref(), nil
}

// bootCluster starts the shards and the gate. conns caps the
// generator's connections to the gate.
func bootCluster(rec *recorder, tmpRoot string, conns int) (*servedCluster, error) {
	dir, err := os.MkdirTemp(tmpRoot, "cluster-")
	if err != nil {
		return nil, fmt.Errorf("registry temp dir: %w", err)
	}
	c := &servedCluster{dir: dir, conns: conns}
	urls := make([]string, shardCount)
	for i := range urls {
		reg, err := registry.Open(fmt.Sprintf("%s/shard%d", dir, i))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("open shard registry: %w", err)
		}
		svc := service.New(service.Config{Workers: 1, Registry: reg})
		h := &tracedHandler{rec: rec, name: "shard", h: httpapi.New(svc, httpapi.Options{}),
			tracer: svc.Observability().Tracer}
		n := &shardNode{srv: httptest.NewServer(h)}
		if n.c, err = client.New(n.srv.URL); err != nil {
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, n)
		urls[i] = n.srv.URL
	}
	upstream := &http.Client{Transport: &hopTransport{rec: rec, name: "attempt",
		base: http.DefaultTransport.(*http.Transport).Clone()}}
	c.gate, err = cluster.New(cluster.Options{Shards: urls, HTTPClient: upstream})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("boot gate: %w", err)
	}
	c.gsrv = httptest.NewServer(&tracedHandler{rec: rec, name: "gate", h: c.gate})
	c.genTr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	c.gen, err = client.New(c.gsrv.URL, client.WithHTTPClient(&http.Client{
		Transport: &hopTransport{rec: rec, base: c.genTr}}))
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops every server and the gate's probes, and removes the
// registry directories. httptest.Server.Close waits for in-flight
// requests, so nothing this cluster started outlives it.
func (c *servedCluster) close() {
	if c.genTr != nil {
		c.genTr.CloseIdleConnections()
	}
	if c.gsrv != nil {
		c.gsrv.Close()
	}
	if c.gate != nil {
		c.gate.Close()
	}
	for _, n := range c.shards {
		n.srv.Close()
	}
	os.RemoveAll(c.dir)
}

// counters is one snapshot of every counter source the benchmark
// reads: each shard's /v1/healthz body and Prometheus exposition, and
// the gate's Stats.
type counters struct {
	healthz []healthzBody
	prom    []map[string]float64
	gate    cluster.Stats
}

// healthzBody is the part of a shard's /v1/healthz the benchmark
// reads.
type healthzBody struct {
	Engine    service.EngineStats   `json:"engine"`
	DFA       service.DFAStats      `json:"dfa"`
	Registry  service.RegistryStats `json:"registry"`
	Algebra   service.AlgebraStats  `json:"algebra"`
	Documents service.DocumentStats `json:"documents"`
}

func (c *servedCluster) snapshot(ctx context.Context) (counters, error) {
	var s counters
	for _, n := range c.shards {
		h, err := n.c.Healthz(ctx)
		if err != nil {
			return s, fmt.Errorf("shard healthz: %w", err)
		}
		var body healthzBody
		if err := json.Unmarshal(h.Raw, &body); err != nil {
			return s, fmt.Errorf("decode shard healthz: %w", err)
		}
		s.healthz = append(s.healthz, body)
		p, err := scrapeProm(ctx, n.srv.URL+"/v1/metrics?format=prom")
		if err != nil {
			return s, err
		}
		s.prom = append(s.prom, p)
	}
	s.gate = c.gate.Stats()
	return s, nil
}

// scrapeProm reads a Prometheus text exposition into series → value,
// the series keyed exactly as exposed (name plus label set).
func scrapeProm(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSum totals one series over every shard.
func (s counters) promSum(series string) float64 {
	var t float64
	for _, p := range s.prom {
		t += p[series]
	}
	return t
}

// stageSeries names one stage's histogram sum or count series.
func stageSeries(stage, suffix string) string {
	return `spand_extract_duration_seconds_` + suffix + `{stage="` + stage + `"}`
}

// docTotals sums the by-reference serving paths over every shard.
func (s counters) docTotals() (hits, replays, rebuilds, full uint64) {
	for _, h := range s.healthz {
		hits += h.Documents.IncrementalHits
		replays += h.Documents.IncrementalReplays
		rebuilds += h.Documents.IncrementalRebuilds
		full += h.Documents.FullExtractions
	}
	return
}
