package cluster

import (
	"net/url"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzParsePeers: ParsePeers never panics, and every peer it accepts is
// one every peer call can reach. The id is non-empty with no
// whitespace, and the url with an endpoint path appended is
// http(s)://host[:port]/.../endpoint: a hostname, a port in 1-65535 if
// one is named, no query or fragment to swallow the path.
func FuzzParsePeers(f *testing.F) {
	for _, seed := range []string{
		// docker-compose.yml's membership, one -peers value per node
		"node-b=http://node-b:8080,node-c=http://node-c:8080",
		"node-a=http://node-a:8080,node-c=http://node-c:8080",
		"node-a=http://node-a:8080,node-b=http://node-b:8080",
		// perfbench's serve-zipf fleet and a path prefix
		"n1=http://127.0.0.1:18092",
		"b=https://[::1]:8443/dabench/",
		// inputs the parser once accepted
		"b=http://h:1?x=1",
		"b=http://h:1#f",
		"b=http://h:1?",
		"b=http://:0",
		"b=http://h:99999",
		"b =http://h:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		peers, err := ParsePeers(s)
		if err != nil {
			return
		}
		if len(peers) == 0 {
			t.Fatalf("ParsePeers(%q) accepted no peers", s)
		}
		for _, p := range peers {
			if p.ID == "" || strings.IndexFunc(p.ID, unicode.IsSpace) >= 0 {
				t.Fatalf("ParsePeers(%q) accepted id %q", s, p.ID)
			}
			u, err := url.Parse(p.URL + "/v1/gossip")
			if err != nil {
				t.Fatalf("ParsePeers(%q): %q + endpoint does not parse: %v", s, p.URL, err)
			}
			if u.Scheme != "http" && u.Scheme != "https" {
				t.Fatalf("ParsePeers(%q): %q has scheme %q", s, p.URL, u.Scheme)
			}
			if u.Hostname() == "" {
				t.Fatalf("ParsePeers(%q): %q has no hostname", s, p.URL)
			}
			if port := u.Port(); port != "" || strings.HasSuffix(u.Host, ":") {
				if n, err := strconv.Atoi(port); err != nil || n < 1 || n > 65535 {
					t.Fatalf("ParsePeers(%q): %q has port %q", s, p.URL, port)
				}
			}
			if u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
				t.Fatalf("ParsePeers(%q): %q + endpoint has a query or fragment", s, p.URL)
			}
			if !strings.HasSuffix(u.Path, "/v1/gossip") {
				t.Fatalf("ParsePeers(%q): %q + endpoint has path %q", s, p.URL, u.Path)
			}
		}
	})
}
