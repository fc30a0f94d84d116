package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// chunk is the union of the NDJSON stream's three chunk shapes: header
// (id, probes), sample (seq, v) and tail (done, state, samples, error).
type chunk struct {
	ID      string    `json:"id"`
	Seq     int       `json:"seq"`
	V       []float64 `json:"v"`
	Done    bool      `json:"done"`
	State   string    `json:"state"`
	Samples int       `json:"samples"`
	Error   string    `json:"error"`
}

// jobStatus is the part of GET /v1/jobs/{id} the probe reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Queued   int64  `json:"queued_ns"`
	Started  int64  `json:"started_ns"`
	Finished int64  `json:"finished_ns"`
}

// streamed is one job's stream as a client saw it.
type streamed struct {
	id    string
	wall  time.Duration // request write to done tail
	first time.Duration // request write to first sample line
	n     int           // sample chunks received
}

// jobBody is the JSON submission for an inline deck with the service's
// defaults (rmatex, tol 1e-6, default ordering) — what `matex deck` runs.
func jobBody(netlist []byte) ([]byte, error) {
	return json.Marshal(map[string]string{"netlist": string(netlist)})
}

// readStream sends req and reads the NDJSON reply to its done tail,
// checking as it goes: 2xx, gap-free seq from 1, a tail in state "done"
// whose sample count matches, and every sample within tol of ref.
func readStream(ctx context.Context, req *http.Request, ref table, tol float64) (streamed, error) {
	var s streamed
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	start := time.Now()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort error text
		return s, fmt.Errorf("%s: HTTP %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	// Read to EOF, not just to the tail, so the connection is reused.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var tail *chunk
	for sc.Scan() {
		var c chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return s, fmt.Errorf("stream chunk: %w", err)
		}
		switch {
		case c.Done:
			s.wall = time.Since(start)
			tail = &c
		case c.Seq > 0:
			if s.n == 0 {
				s.first = time.Since(start)
			}
			s.n++
			if c.Seq != s.n {
				return s, fmt.Errorf("job %s: seq %d after %d samples", s.id, c.Seq, s.n-1)
			}
			if s.n > len(ref.rows) || len(c.V) != len(ref.rows[s.n-1]) {
				return s, fmt.Errorf("job %s: sample %d has no reference row", s.id, s.n)
			}
			for k, v := range c.V {
				if d := math.Abs(v - ref.rows[s.n-1][k]); !(d <= tol) {
					return s, fmt.Errorf("job %s: sample %d probe %d off by %.3g V", s.id, s.n, k, d)
				}
			}
		default:
			s.id = c.ID
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if tail == nil {
		return s, fmt.Errorf("job %s: stream ended without a done tail after %d samples", s.id, s.n)
	}
	if tail.State != "done" || tail.Samples != s.n || s.n != len(ref.rows) {
		return s, fmt.Errorf("job %s ended %q with %d samples (%d streamed, %d expected): %s",
			s.id, tail.State, tail.Samples, s.n, len(ref.rows), tail.Error)
	}
	return s, nil
}

// simulate is one closed-loop service operation: POST /v1/simulate and
// read the stream to the done tail.
func simulate(ctx context.Context, base string, body []byte, ref table, tol float64) (streamed, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return streamed{}, err
	}
	return readStream(ctx, req, ref, tol)
}

// getJSON decodes a 2xx JSON reply into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit posts a job to the queue (POST /v1/jobs) and returns its status
// and the time to the 202: decode + parse + stamp + journal fsync.
func submit(ctx context.Context, base string, body []byte) (jobStatus, time.Duration, error) {
	var st jobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort error text
		return st, 0, fmt.Errorf("POST /v1/jobs: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, time.Since(start), err
}
