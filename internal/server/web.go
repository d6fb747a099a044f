package server

import "net/http"

// The minimal web user interface of D3.3 §3.2: the IReS home page lists the
// abstract workflows and offers Materialize/Execute buttons, driven by the
// JSON API. Served at /web/main like the original server.
const webMain = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>IReS Platform</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 70em; }
 h1 { border-bottom: 2px solid #444; }
 table { border-collapse: collapse; margin: 1em 0; }
 td, th { border: 1px solid #999; padding: 0.3em 0.8em; text-align: left; }
 button { margin-right: 0.5em; }
 pre { background: #f4f4f4; padding: 1em; overflow-x: auto; }
 .err { color: #a00; }
</style>
</head>
<body>
<h1>IReS &mdash; Intelligent Multi-Engine Resource Scheduler</h1>

<h2>Abstract Workflows</h2>
<table id="workflows"><tr><th>name</th><th>actions</th></tr></table>

<h2>Operators</h2>
<table id="operators"><tr><th>name</th><th>engine</th><th>algorithm</th><th>profiled</th></tr></table>

<h2>Engines</h2>
<table id="engines"><tr><th>name</th><th>status</th><th>actions</th></tr></table>

<h2>Output</h2>
<pre id="out">select a workflow and press Materialize or Execute</pre>

<script>
const out = document.getElementById('out');
function show(v) { out.textContent = typeof v === 'string' ? v : JSON.stringify(v, null, 2); }
async function call(method, path) {
  try {
    const resp = await fetch(path, {method});
    const body = await resp.json();
    show(body);
    return body;
  } catch (e) { show('error: ' + e); }
}
async function refresh() {
  const wf = await (await fetch('/api/workflows')).json() || [];
  const wfT = document.getElementById('workflows');
  wfT.innerHTML = '<tr><th>name</th><th>actions</th></tr>';
  for (const name of wf) {
    const row = wfT.insertRow();
    row.insertCell().textContent = name;
    const actions = row.insertCell();
    for (const act of ['materialize', 'pareto', 'execute']) {
      const b = document.createElement('button');
      b.textContent = act;
      b.onclick = () => call('POST', '/api/workflows/' + name + '/' + act);
      actions.appendChild(b);
    }
  }
  const ops = await (await fetch('/api/operators')).json() || [];
  const opT = document.getElementById('operators');
  opT.innerHTML = '<tr><th>name</th><th>engine</th><th>algorithm</th><th>profiled</th></tr>';
  for (const op of ops) {
    const row = opT.insertRow();
    for (const k of ['name', 'engine', 'algorithm', 'profiled']) {
      row.insertCell().textContent = op[k];
    }
  }
  const engines = await (await fetch('/api/engines')).json() || [];
  const enT = document.getElementById('engines');
  enT.innerHTML = '<tr><th>name</th><th>status</th><th>actions</th></tr>';
  for (const e of engines) {
    const row = enT.insertRow();
    row.insertCell().textContent = e.name;
    row.insertCell().textContent = e.available ? 'ON' : 'OFF';
    const b = document.createElement('button');
    b.textContent = e.available ? 'kill' : 'restore';
    b.onclick = async () => {
      await fetch('/api/engines/' + e.name + '/availability', {
        method: 'POST',
        body: JSON.stringify({on: !e.available}),
      });
      refresh();
    };
    row.insertCell().appendChild(b);
  }
}
refresh();
</script>
</body>
</html>
`

func (s *Server) getWeb(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(webMain))
}
