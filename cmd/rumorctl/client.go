package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// call sends one request to a rumord daemon — a GET, or a JSON POST when
// body is non-nil — and returns the body of a 2xx response for the caller
// to decode and close. Any other status becomes an error carrying the
// daemon's {"error": ...} message, or the bare status.
func call(url string, body []byte) (io.ReadCloser, error) {
	var (
		resp *http.Response
		err  error
	)
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	if resp.StatusCode/100 == 2 {
		return resp.Body, nil
	}
	defer resp.Body.Close()
	var apiErr struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
		return nil, fmt.Errorf("rumord: %s", apiErr.Error)
	}
	return nil, fmt.Errorf("rumord: status %d", resp.StatusCode)
}
