package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/trace"
)

// maxConns caps the benchmark's connections to flowd: the box has two
// cores, and every client connection is a goroutine competing with the
// server for them.
const maxConns = 2

// client drives one flowd over loopback HTTP. Clients of one process
// share a transport, so maxConns bounds them together.
type client struct {
	base string
	hc   *http.Client
}

func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
}

func newClient(base string, tr *http.Transport) *client {
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

// runView is the part of flowd's run JSON the benchmark checks.
type runView struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	TasksRun  int    `json:"tasks_run"`
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error"`
}

// get fetches a path and returns the whole body of a 200 response.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) healthz() error {
	_, err := c.get("/healthz")
	return err
}

// submit posts a run and returns its ID once flowd answers 201.
func (c *client) submit(body []byte) (string, error) {
	resp, err := c.hc.Post(c.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("POST /v1/runs: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /v1/runs: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var v runView
	if err := json.Unmarshal(data, &v); err != nil {
		return "", fmt.Errorf("POST /v1/runs: %w", err)
	}
	return v.ID, nil
}

// follow reads a run's trace stream to EOF, which flowd sends only
// after RunFinished and the run's terminal state. It returns the event
// count and the last event; each, when non-nil, sees every line.
func (c *client) follow(id string, each func(line []byte) error) (events int, last trace.Event, err error) {
	resp, err := c.hc.Get(c.base + "/v1/runs/" + id + "/trace")
	if err != nil {
		return 0, last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, last, fmt.Errorf("GET trace of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var lastLine []byte
	for sc.Scan() {
		events++
		if each != nil {
			if err := each(sc.Bytes()); err != nil {
				return events, last, err
			}
		}
		lastLine = append(lastLine[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return events, last, fmt.Errorf("reading trace of %s: %w", id, err)
	}
	if events > 0 {
		if err := json.Unmarshal(lastLine, &last); err != nil {
			return events, last, fmt.Errorf("trace of %s: last event: %w", id, err)
		}
	}
	return events, last, nil
}

// list returns every run flowd holds.
func (c *client) list() ([]runView, error) {
	body, err := c.get("/v1/runs")
	if err != nil {
		return nil, err
	}
	var views []runView
	if err := json.Unmarshal(body, &views); err != nil {
		return nil, fmt.Errorf("GET /v1/runs: %w", err)
	}
	return views, nil
}

// provenance sends one chaining query and returns the raw response.
func (c *client) provenance(run string, q query) ([]byte, error) {
	v := url.Values{}
	v.Set("inst", q.inst)
	v.Set("dir", q.dir)
	v.Set("depth", strconv.Itoa(q.depth))
	return c.get("/v1/runs/" + run + "/provenance?" + v.Encode())
}

// provenanceNodes decodes the node list of a provenance response.
func provenanceNodes(body []byte) ([]string, error) {
	var v struct {
		Nodes []string `json:"nodes"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return v.Nodes, nil
}
