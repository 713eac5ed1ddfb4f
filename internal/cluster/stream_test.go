package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"samnet/internal/service"
)

// streamDeadline bounds every stream these tests open, so a gateway that
// stalls fails the test instead of hanging it.
const streamDeadline = 30 * time.Second

// streamFleet is a two-replica gateway with one trained profile owned by
// each replica, beside a lone replica trained the same way whose answers
// the fleet's must match.
type streamFleet struct {
	gw, single *httptest.Server
	rb         *httptest.Server // the replica that owns pb
	pa, pb     string
	sets       [][][]int
}

func newStreamFleet(t *testing.T) *streamFleet {
	t.Helper()
	f := &streamFleet{single: newReplica(t)}
	r1, r2 := newReplica(t), newReplica(t)
	f.rb = r2
	var g *Gateway
	g, f.gw = newTestGateway(t, r1.URL, r2.URL)
	for i := 0; f.pa == "" || f.pb == ""; i++ {
		name := fmt.Sprintf("stream-%d", i)
		switch owner := g.fleet.Owner(name); {
		case owner == r1.URL && f.pa == "":
			f.pa = name
		case owner == r2.URL && f.pb == "":
			f.pb = name
		}
	}
	for _, p := range []string{f.pa, f.pb} {
		trainDirect(t, f.gw.URL, p)
		trainDirect(t, f.single.URL, p)
	}
	f.sets = append(genSets(8, false, 8000), genSets(8, true, 9000)...)
	return f
}

// line renders input line i for profile p, frozen so its answer depends on
// the line alone.
func (f *streamFleet) line(t *testing.T, p string, i int) string {
	t.Helper()
	frozen := false
	return mustMarshal(t, service.DetectRequest{Profile: p, Routes: f.sets[i%len(f.sets)], Update: &frozen}) + "\n"
}

// openStream starts a stream to url whose body the caller writes into the
// returned pipe, and scans its answers.
func openStream(t *testing.T, url string) (*io.PipeWriter, *bufio.Scanner) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), streamDeadline)
	t.Cleanup(cancel)
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/detect/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	return pw, sc
}

// streamAll sends body as one pipelined stream and returns every answer.
func streamAll(t *testing.T, url, body string) []string {
	t.Helper()
	pw, sc := openStream(t, url)
	go func() {
		_, err := io.WriteString(pw, body)
		pw.CloseWithError(err)
	}()
	var out []string
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream after %d answers: %v", len(out), err)
	}
	return out
}

// requireAnswers checks got against the lone replica's answers, line by line.
func requireAnswers(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("gateway answered %d lines, the lone replica %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d diverged:\n gw:     %.200s\n single: %.200s", i, got[i], want[i])
		}
	}
}

// TestGatewayStreamLockstep sends one line at a time and waits for its
// answer before the next: the gateway must flush each line to its replica
// as soon as the client's input drains, or the first answer never comes.
func TestGatewayStreamLockstep(t *testing.T) {
	f := newStreamFleet(t)
	var body strings.Builder
	for i := 0; i < 12; i++ {
		body.WriteString(f.line(t, []string{f.pa, f.pb}[i%2], i))
	}
	want := streamAll(t, f.single.URL, body.String())

	pw, sc := openStream(t, f.gw.URL)
	for i, line := range strings.SplitAfter(body.String(), "\n")[:len(want)] {
		if _, err := io.WriteString(pw, line); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("line %d: no answer: %v", i, sc.Err())
		}
		if sc.Text() != want[i] {
			t.Fatalf("answer %d diverged:\n gw:     %.200s\n single: %.200s", i, sc.Text(), want[i])
		}
	}
	pw.Close()
	if sc.Scan() {
		t.Fatalf("unexpected trailing answer: %.200s", sc.Text())
	}
}

// TestGatewayStreamBurstBehindOneLine queues one line for replica A and
// then more lines for replica B than the gateway's order queue holds, in
// one burst. A's line is still batched when the queue fills, and the merger
// waits on it: the gateway must flush before it blocks on the full queue.
// Short lines keep B's batch under its size limit, and a run of B lines
// before A's fills the gateway's first, short read of the body, so A's line
// and the burst behind it arrive in one read with no drain between them.
func TestGatewayStreamBurstBehindOneLine(t *testing.T) {
	f := newStreamFleet(t)
	short := func(p string) string {
		return `{"profile":"` + p + `","routes":[[0,1,2],[0,3,2]],"update":false}` + "\n"
	}
	body := strings.Repeat(short(f.pb), 100) + short(f.pa) + strings.Repeat(short(f.pb), 400)
	requireAnswers(t, streamAll(t, f.gw.URL, body), streamAll(t, f.single.URL, body))
}

// TestGatewayStreamReplicaDies cuts replica B's connections partway through
// a pipelined burst. Every input line must still get exactly one answer, in
// order: A's lines and B's lines answered before the cut match the lone
// replica, and from B's first error line on every B line is an error line.
func TestGatewayStreamReplicaDies(t *testing.T) {
	f := newStreamFleet(t)
	const n = 200
	profiles := make([]string, n)
	var first, second strings.Builder
	for i := range profiles {
		profiles[i] = []string{f.pa, f.pb}[i%2]
		half := &first
		if i >= n/2 {
			half = &second
		}
		half.WriteString(f.line(t, profiles[i], i))
	}
	want := streamAll(t, f.single.URL, first.String()+second.String())

	pw, sc := openStream(t, f.gw.URL)
	cut := make(chan struct{})
	go func() {
		_, err := io.WriteString(pw, first.String())
		if err == nil {
			<-cut
			_, err = io.WriteString(pw, second.String())
		}
		pw.CloseWithError(err)
	}()
	var got []string
	for sc.Scan() {
		if got = append(got, sc.Text()); len(got) == 20 {
			f.rb.CloseClientConnections()
			close(cut)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream after %d answers: %v", len(got), err)
	}
	if len(got) != n {
		t.Fatalf("gateway answered %d lines for %d inputs", len(got), n)
	}
	bDead := false
	for i, line := range got {
		if profiles[i] == f.pb && (bDead || line != want[i]) {
			if !strings.Contains(line, `"error":"replica `) {
				t.Fatalf("answer %d for the cut replica is neither its verdict nor a replica error: %.200s", i, line)
			}
			bDead = true
			continue
		}
		if line != want[i] {
			t.Fatalf("answer %d diverged:\n gw:     %.200s\n single: %.200s", i, line, want[i])
		}
	}
	if !bDead {
		t.Fatal("no line for the cut replica answered an error")
	}
}

// TestGatewayStreamLongAnswer reads an answer longer than the merger's
// 64 KiB read buffer, which takes the copying path.
func TestGatewayStreamLongAnswer(t *testing.T) {
	f := newStreamFleet(t)
	// An explain record lists every counted link: three 1000-hop routes
	// give about 3000 of them.
	routes := make([][]int, 3)
	for r := range routes {
		for id := 0; id <= 1000; id++ {
			routes[r] = append(routes[r], 2000*r+id)
		}
	}
	long := mustMarshal(t, service.DetectRequest{Profile: f.pa, Routes: routes, Explain: true}) + "\n"
	body := f.line(t, f.pb, 0) + long + f.line(t, f.pa, 1)
	got := streamAll(t, f.gw.URL, body)
	requireAnswers(t, got, streamAll(t, f.single.URL, body))
	if len(got[1]) < 64<<10 {
		t.Fatalf("answer 1 is %d bytes; the test needs one past the merger's buffer", len(got[1]))
	}
}

// TestGatewayStreamFullBatches pipelines enough lines for both replicas to
// fill their 32 KiB batches several times, with malformed and blank lines
// between them; the answers must match the lone replica's, one per
// non-blank line.
func TestGatewayStreamFullBatches(t *testing.T) {
	f := newStreamFleet(t)
	var body bytes.Buffer
	for i := 0; i < 600; i++ {
		body.WriteString(f.line(t, []string{f.pa, f.pb}[i%3%2], i))
		if i%97 == 0 {
			body.WriteString("\n{not json\n")
		}
	}
	requireAnswers(t, streamAll(t, f.gw.URL, body.String()), streamAll(t, f.single.URL, body.String()))
}
