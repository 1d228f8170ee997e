package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestLossyClusterSmoke runs a small cluster over lossy loopback links
// in-process: every call ends, every node settles, and neither the
// nodes' own checkers nor the sweep find interference.
func TestLossyClusterSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-nodes", "3", "-calls", "12", "-drop", "0.02"}, &stdout, &stderr)
	if code != 0 || !strings.Contains(stdout.String(), "no co-channel interference") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr.String(), stdout.String())
	}
}

// TestMetricsCarryProtocolFamilies: the endpoint renders the protocol
// families from the hosted stations' own counts next to the runtime's
// and the transport's, and the grants by path add up to the calls the
// run reports granted. The scrape happens while the run lingers.
func TestMetricsCarryProtocolFamilies(t *testing.T) {
	out, w := io.Pipe()
	var stderr bytes.Buffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-nodes", "2", "-calls", "12", "-metrics", "127.0.0.1:0", "-linger", "2s"}, w, &stderr)
		w.Close()
	}()
	addr, granted := "", -1
	for lines := bufio.NewScanner(out); lines.Scan(); {
		line := lines.Text()
		if a, ok := strings.CutPrefix(line, "metrics: http://"); ok {
			addr = strings.TrimSuffix(a, "/metrics")
		}
		fmt.Sscanf(line, "granted %d", &granted)
		if strings.HasPrefix(line, "metrics: lingering") {
			break
		}
	}
	go io.Copy(io.Discard, out)
	if addr == "" || granted < 0 {
		t.Fatalf("no metrics address (%q) or grant count (%d); exit %d, stderr %q", addr, granted, <-code, stderr.String())
	}
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit %d, stderr %q", c, stderr.String())
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE adca_grants_total counter",
		"adca_denies_total ",
		"adca_borrow_attempts_total ",
		`adca_mode_transitions_total{from="local",to="borrowing"} `,
		"adca_defer_queue_depth ",
		"adca_bad_messages_total ",
		"adca_requests_granted_total " + strconv.Itoa(granted),
		"adca_transport_messages_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	sum := 0
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "adca_grants_total{"); ok {
			_, v, _ = strings.Cut(v, " ")
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sum += n
		}
	}
	if sum != granted {
		t.Errorf("adca_grants_total sums to %d over its paths, the run granted %d", sum, granted)
	}
}
