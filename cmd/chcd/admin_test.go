package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chc/internal/nf"
	"chc/internal/runtime"
)

// TestAdminMux drives the admin API both chcd modes serve, over a chain
// that is built but not started: the reads answer, a malformed spec is a
// bad request, and draining a vertex the chain does not have is refused.
func TestAdminMux(t *testing.T) {
	ch := runtime.New(runtime.DefaultChainConfig(),
		runtime.VertexSpec{Name: "pass", Make: func() nf.NF { return nf.Pass{} }})
	srv := httptest.NewServer(adminMux(ch, "a"))
	defer srv.Close()
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/health", "", http.StatusOK},
		{"GET", "/spec", "", http.StatusOK},
		{"POST", "/spec", "{not json", http.StatusBadRequest},
		{"POST", "/drain/nosuch", "", http.StatusUnprocessableEntity},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}
